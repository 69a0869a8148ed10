//! Query multiplexing over persistent links: the owner-side reactor and
//! the admission layer.
//!
//! PR-4's wide rounds proved that tagging wire traffic (the `seq`
//! number) is what lets independent rounds share a link without
//! cross-pairing. This module generalizes that idea to *every* round:
//!
//! * [`MuxLink`] wraps one [`Link`] with a **per-link reactor** — a pump
//!   thread that owns the link's `recv` side and routes each
//!   [`Message::Tagged`] reply into the completion slot registered for
//!   its `QueryId`. Query threads `send` requests (tagged) directly on
//!   the link — sends serialize inside the link — and park on their own
//!   slot, so N queries interleave rounds over one connection and no
//!   reply can reach the wrong query.
//! * [`Admission`] bounds how many queries are in flight at once and
//!   picks *which* waiting query starts next: per-owner FIFO queues
//!   drained round-robin, so one chatty owner cannot starve the rest.
//!
//! **Tagging rule.** Within one query the engine's rounds are strictly
//! sequential — a plan never issues round `r+1` before round `r`'s reply
//! is consumed — so `(QueryId, link)` has at most one outstanding
//! request at any instant and the `QueryId` alone suffices to pair
//! replies; no per-round counter is needed. Untagged replies arriving at
//! a `MuxLink` (a protocol bug, or a stray legacy peer) are counted in
//! [`MuxLink::rejected`] and dropped rather than guessed at.
//!
//! **Failure containment.** A query that dies mid-flight simply drops
//! its [`Pending`] slot; a late reply for it bumps the rejected counter
//! and is discarded, leaving other queries on the link untouched. If the
//! pump itself dies (peer hung up), every open slot is woken with a
//! disconnect so no waiter parks forever, and subsequent registrations
//! fail fast.

use crate::transport::{Link, NetError};
use crate::wire::Message;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies one in-flight query across every link of a cluster.
pub type QueryId = u64;

/// One [`Link`] shared by many concurrent queries: requests go out
/// tagged, a pump thread routes tagged replies into per-query slots.
pub struct MuxLink {
    link: Arc<dyn Link>,
    slots: Mutex<HashMap<QueryId, Sender<Message>>>,
    rejected: AtomicU64,
    dead: AtomicBool,
    /// Node label for crash diagnostics: when set, pump death surfaces
    /// as [`NetError::NodeDown`] naming this node instead of a generic
    /// disconnect, so callers can tell crash from tamper.
    label: Option<String>,
}

/// A registered completion slot: the receive side of one query's replies
/// on one [`MuxLink`]. Dropping it deregisters the query from the link,
/// so an aborted query's late replies are rejected instead of filling an
/// orphaned buffer.
pub struct Pending {
    mux: Arc<MuxLink>,
    id: QueryId,
    rx: Receiver<Message>,
}

impl Pending {
    /// Block for the next reply routed to this query. If the wait ends
    /// because the link's pump died, the error names the node (when the
    /// link is labeled) so a crashed worker is not mistaken for tamper.
    pub fn recv(&self) -> Result<Message, NetError> {
        self.rx.recv().map_err(|_| self.mux.dead_error())
    }

    /// Like [`Pending::recv`] but gives up after `timeout`, returning
    /// [`NetError::Timeout`]. The registry's keep-alive prober uses this
    /// so a wedged (not just dead) node cannot park the probe loop.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Message, NetError> {
        use crossbeam::channel::RecvTimeoutError;
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => self.mux.dead_error(),
        })
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        self.mux.slots.lock().remove(&self.id);
    }
}

impl MuxLink {
    /// Wrap `link` and start its pump thread. The pump runs until the
    /// link disconnects or every handle to the `MuxLink` is gone.
    pub fn new(link: Arc<dyn Link>) -> Arc<MuxLink> {
        MuxLink::build(link, None)
    }

    /// Like [`MuxLink::new`], but names the remote node: pump death on a
    /// labeled link surfaces to waiters as [`NetError::NodeDown`] instead
    /// of a generic disconnect.
    pub fn new_labeled(link: Arc<dyn Link>, label: impl Into<String>) -> Arc<MuxLink> {
        MuxLink::build(link, Some(label.into()))
    }

    fn build(link: Arc<dyn Link>, label: Option<String>) -> Arc<MuxLink> {
        let mux = Arc::new(MuxLink {
            link: Arc::clone(&link),
            slots: Mutex::new(HashMap::new()),
            rejected: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            label,
        });
        let weak = Arc::downgrade(&mux);
        std::thread::spawn(move || loop {
            // Hold no strong reference while blocked in recv: when the
            // cluster drops its MuxLinks the pump may be parked forever
            // on a dead channel link, and must not keep the mux alive.
            let msg = match link.recv() {
                Ok(m) => m,
                Err(_) => {
                    if let Some(mux) = weak.upgrade() {
                        mux.dead.store(true, Ordering::SeqCst);
                        // Wake every parked waiter with Disconnected by
                        // dropping their send sides.
                        mux.slots.lock().clear();
                    }
                    return;
                }
            };
            let Some(mux) = weak.upgrade() else { return };
            match msg {
                Message::Tagged { query, inner } => {
                    let tx = mux.slots.lock().get(&query).cloned();
                    match tx {
                        // A send error means the query dropped its
                        // Pending between the lookup and the delivery —
                        // same outcome as no slot at all.
                        Some(tx) if tx.send(*inner).is_ok() => {}
                        _ => {
                            mux.rejected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                _ => {
                    mux.rejected.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        mux
    }

    /// Register a completion slot for `id`. Fails if the pump is dead or
    /// the id already has a slot (one `Pending` per query per link).
    pub fn begin(self: &Arc<MuxLink>, id: QueryId) -> Result<Pending, NetError> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(self.dead_error());
        }
        let (tx, rx) = unbounded();
        {
            let mut slots = self.slots.lock();
            if slots.contains_key(&id) {
                return Err(NetError::Mux("duplicate query slot on one link"));
            }
            slots.insert(id, tx);
        }
        // The pump may have died between the check and the insert; its
        // final clear() may have run before the insert landed. Re-check
        // under no lock: if dead, the slot (if still present) is ours to
        // remove via Pending's Drop, and recv() on a cleared slot
        // returns Disconnected anyway.
        if self.dead.load(Ordering::SeqCst) {
            self.slots.lock().remove(&id);
            return Err(self.dead_error());
        }
        Ok(Pending {
            mux: Arc::clone(self),
            id,
            rx,
        })
    }

    /// Send one request on behalf of query `id` (wrapped in a
    /// [`Message::Tagged`] envelope).
    pub fn send(&self, id: QueryId, msg: Message) -> Result<(), NetError> {
        self.link.send(&msg.tagged(id))
    }

    /// Send an *untagged* message on the shared link (session-scoped
    /// traffic: uploads, tamper injection, shutdown — anything answered
    /// inline or not at all).
    pub fn send_raw(&self, msg: &Message) -> Result<(), NetError> {
        self.link.send(msg)
    }

    /// One full round-trip for query `id`: register, send, await the
    /// reply. This is the common case — the engine's rounds are
    /// strictly sequential within a query.
    pub fn request(self: &Arc<MuxLink>, id: QueryId, msg: Message) -> Result<Message, NetError> {
        let pending = self.begin(id)?;
        self.send(id, msg)?;
        pending.recv()
    }

    /// Whether the pump has died (the peer hung up or its link broke).
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// The node label this link was built with, if any.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// The error a dead link surfaces: [`NetError::NodeDown`] naming the
    /// node when labeled, plain [`NetError::Disconnected`] otherwise.
    pub fn dead_error(&self) -> NetError {
        match &self.label {
            Some(node) => NetError::NodeDown { node: node.clone() },
            None => NetError::Disconnected,
        }
    }

    /// Replies dropped because no query claimed them (unknown/finished
    /// `QueryId`, or an untagged reply on a multiplexed link).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// The underlying link's send-side stats.
    pub fn stats(&self) -> Arc<crate::transport::LinkStats> {
        self.link.stats()
    }
}

impl std::fmt::Debug for MuxLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxLink")
            .field("open_slots", &self.slots.lock().len())
            .field("rejected", &self.rejected())
            .field("dead", &self.dead.load(Ordering::SeqCst))
            .finish()
    }
}

/// Bounded-window admission with per-owner fair queueing.
///
/// Queries ask for a [`Permit`] before their first round; at most
/// `window` permits are out at once. Waiters queue FIFO *per owner* and
/// owners are drained round-robin (a rotating cursor picks the next
/// owner with a waiting query), so fairness holds even when one owner
/// floods the cluster.
#[derive(Debug)]
pub struct Admission {
    state: std::sync::Mutex<AdmState>,
    cond: std::sync::Condvar,
}

#[derive(Debug)]
struct AdmState {
    window: usize,
    in_flight: usize,
    next_ticket: u64,
    /// Owner → FIFO of waiting tickets.
    queues: BTreeMap<u32, VecDeque<u64>>,
    /// The owner served most recently; the next grant goes to the
    /// smallest owner key strictly greater (wrapping to the smallest).
    cursor: u32,
}

impl AdmState {
    /// The owner whose head-of-queue ticket is granted next: round-robin
    /// from the cursor over owners that have waiters.
    fn chosen(&self) -> Option<u32> {
        self.queues
            .range(self.cursor.wrapping_add(1)..)
            .map(|(&o, _)| o)
            .next()
            .or_else(|| self.queues.keys().next().copied())
    }
}

/// An admission grant; dropping it releases the window slot and wakes
/// waiters.
pub struct Permit<'a> {
    adm: &'a Admission,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.adm.lock();
        st.in_flight -= 1;
        drop(st);
        self.adm.cond.notify_all();
    }
}

impl Admission {
    /// An admission layer allowing `window` queries in flight at once
    /// (`window == 0` is clamped to 1 — a zero window would admit
    /// nothing, ever).
    pub fn new(window: usize) -> Admission {
        Admission {
            state: std::sync::Mutex::new(AdmState {
                window: window.max(1),
                in_flight: 0,
                next_ticket: 0,
                queues: BTreeMap::new(),
                cursor: u32::MAX,
            }),
            cond: std::sync::Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AdmState> {
        // A poisoned admission lock means a waiter panicked between two
        // counter updates; the counters themselves are updated atomically
        // under the lock, so the state is still consistent — recover it.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Block until `owner`'s turn comes up inside the window, then take a
    /// slot. Returns the RAII [`Permit`] releasing it.
    pub fn acquire(&self, owner: u32) -> Permit<'_> {
        let mut st = self.lock();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queues.entry(owner).or_default().push_back(ticket);
        loop {
            let grantable = st.in_flight < st.window
                && st.chosen() == Some(owner)
                && st.queues[&owner].front() == Some(&ticket);
            if grantable {
                st.in_flight += 1;
                st.cursor = owner;
                let q = st.queues.get_mut(&owner).expect("owner queue exists");
                q.pop_front();
                if q.is_empty() {
                    st.queues.remove(&owner);
                }
                drop(st);
                // Another owner's head may also be grantable now that the
                // cursor moved.
                self.cond.notify_all();
                return Permit { adm: self };
            }
            st = match self.cond.wait(st) {
                Ok(st) => st,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// Queries currently holding a permit.
    pub fn in_flight(&self) -> usize {
        self.lock().in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::channel_pair;

    /// A small reply payload distinguishable by `seq`.
    fn pong(seq: u64) -> Message {
        Message::Pong { seq, generation: 0 }
    }

    #[test]
    fn replies_route_to_their_own_query() {
        let (owner, peer) = channel_pair();
        let mux = MuxLink::new(Arc::new(owner));
        let p7 = mux.begin(7).unwrap();
        let p9 = mux.begin(9).unwrap();
        mux.send(7, Message::RangeVersionProbe).unwrap();
        mux.send(9, Message::RangeVersionProbe).unwrap();
        // Peer answers out of order; each reply still lands in its slot.
        let (q1, _) = peer.recv().unwrap().untag();
        let (q2, _) = peer.recv().unwrap().untag();
        assert_eq!((q1, q2), (Some(7), Some(9)));
        peer.send(&pong(99).tagged(9)).unwrap();
        peer.send(&pong(77).tagged(7)).unwrap();
        assert_eq!(p7.recv().unwrap(), pong(77));
        assert_eq!(p9.recv().unwrap(), pong(99));
        assert_eq!(mux.rejected(), 0);
    }

    #[test]
    fn unclaimed_and_untagged_replies_are_rejected_not_misrouted() {
        let (owner, peer) = channel_pair();
        let mux = MuxLink::new(Arc::new(owner));
        let pending = mux.begin(1).unwrap();
        // Wrong QueryId, then untagged, then the real reply.
        peer.send(&pong(5).tagged(999)).unwrap();
        peer.send(&Message::Ack).unwrap();
        peer.send(&pong(42).tagged(1)).unwrap();
        assert_eq!(pending.recv().unwrap(), pong(42));
        assert_eq!(mux.rejected(), 2);
    }

    #[test]
    fn dropping_a_pending_deregisters_the_query() {
        let (owner, peer) = channel_pair();
        let mux = MuxLink::new(Arc::new(owner));
        drop(mux.begin(3).unwrap());
        // A late reply for the aborted query is rejected; a later query
        // with a fresh id is unaffected.
        peer.send(&pong(1).tagged(3)).unwrap();
        let p4 = mux.begin(4).unwrap();
        peer.send(&pong(2).tagged(4)).unwrap();
        assert_eq!(p4.recv().unwrap(), pong(2));
        assert_eq!(mux.rejected(), 1);
        // The id itself can be re-registered after the drop.
        let _p3 = mux.begin(3).unwrap();
    }

    #[test]
    fn duplicate_slots_are_refused() {
        let (owner, _peer) = channel_pair();
        let mux = MuxLink::new(Arc::new(owner));
        let _p = mux.begin(5).unwrap();
        assert!(matches!(mux.begin(5), Err(NetError::Mux(_))));
    }

    #[test]
    fn pump_death_wakes_waiters_and_fails_new_registrations() {
        let (owner, peer) = channel_pair();
        let mux = MuxLink::new(Arc::new(owner));
        let pending = mux.begin(8).unwrap();
        drop(peer);
        assert!(matches!(
            pending.recv().unwrap_err(),
            NetError::Disconnected
        ));
        // The pump marked itself dead; registrations now fail fast
        // (poll briefly — the pump thread races the drop).
        for _ in 0..100 {
            if mux.begin(9).is_err() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("begin kept succeeding after the pump died");
    }

    #[test]
    fn labeled_pump_death_names_the_node() {
        let (owner, peer) = channel_pair();
        let mux = MuxLink::new_labeled(Arc::new(owner), "d1/s3");
        let pending = mux.begin(2).unwrap();
        drop(peer);
        match pending.recv().unwrap_err() {
            NetError::NodeDown { node } => assert_eq!(node, "d1/s3"),
            other => panic!("expected NodeDown, got {other:?}"),
        }
        // New registrations fail with the same named error once the pump
        // has marked the link dead (poll briefly — the pump races the
        // drop).
        for _ in 0..100 {
            match mux.begin(3) {
                Err(NetError::NodeDown { node }) => {
                    assert_eq!(node, "d1/s3");
                    return;
                }
                Err(other) => panic!("expected NodeDown, got {other:?}"),
                Ok(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        }
        panic!("begin kept succeeding after the pump died");
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (owner, peer) = channel_pair();
        let mux = MuxLink::new(Arc::new(owner));
        let pending = mux.begin(6).unwrap();
        assert!(matches!(
            pending.recv_timeout(std::time::Duration::from_millis(10)),
            Err(NetError::Timeout)
        ));
        // The slot survives a timeout: a late reply still lands.
        peer.send(&pong(11).tagged(6)).unwrap();
        assert_eq!(
            pending
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap(),
            pong(11)
        );
    }

    #[test]
    fn admission_window_bounds_in_flight() {
        let adm = Arc::new(Admission::new(2));
        let p1 = adm.acquire(0);
        let p2 = adm.acquire(1);
        assert_eq!(adm.in_flight(), 2);
        let adm2 = Arc::clone(&adm);
        let h = std::thread::spawn(move || {
            let _p3 = adm2.acquire(2);
            adm2.in_flight()
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(adm.in_flight(), 2, "third query must wait for a slot");
        drop(p1);
        assert_eq!(h.join().unwrap(), 2);
        drop(p2);
        assert_eq!(adm.in_flight(), 0);
    }

    #[test]
    fn owners_are_served_round_robin() {
        // Window 1 serializes grants; waiters from owners {1, 2, 3}
        // must be granted in owner-rotating order even though owner 1
        // queued two tickets first.
        let adm = Arc::new(Admission::new(1));
        let gate = adm.acquire(0);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for owner in [1u32, 1, 2, 3] {
            let waiter = Arc::clone(&adm);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                let permit = waiter.acquire(owner);
                order.lock().push(owner);
                drop(permit);
            }));
            // Deterministic queue order: wait until this waiter is
            // enqueued before spawning the next.
            loop {
                let st = adm.lock();
                let queued: usize = st.queues.values().map(VecDeque::len).sum();
                drop(st);
                if queued >= handles.len() {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        drop(gate);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            *order.lock(),
            vec![1, 2, 3, 1],
            "rotation visits every owner before repeating one"
        );
    }

    #[test]
    fn chosen_rotates_cyclically() {
        let mut st = AdmState {
            window: 4,
            in_flight: 0,
            next_ticket: 0,
            queues: BTreeMap::new(),
            cursor: u32::MAX,
        };
        st.queues.entry(2).or_default().push_back(0);
        st.queues.entry(5).or_default().push_back(1);
        st.queues.entry(9).or_default().push_back(2);
        st.cursor = u32::MAX; // fresh: wraps to the smallest owner
        assert_eq!(st.chosen(), Some(2));
        st.cursor = 2;
        assert_eq!(st.chosen(), Some(5));
        st.cursor = 5;
        assert_eq!(st.chosen(), Some(9));
        st.cursor = 9; // past the largest: wraps
        assert_eq!(st.chosen(), Some(2));
        st.queues.clear();
        assert_eq!(st.chosen(), None);
    }
}
