//! # prism-net
//!
//! Deployment layer for PRISM: an explicit wire format, metered duplex
//! links (in-process channels and TCP), and a threaded cluster harness
//! whose topology makes the §3.2 no-server-communication property hold by
//! construction — servers are built with a single link to the owner side
//! and no way to reach each other. The announcer (max/median's fourth
//! party) is a real node too: one owner-side control link plus a
//! dedicated upload link from each additive server, so the blinded
//! wide-share matrices flow server→announcer without ever crossing an
//! owner link. One domain router and one node serving loop (the private
//! `router` module) are brought up in one place,
//! [`ClusterListener::start`]: [`NetCluster`]'s constructors are thin
//! wrappers over a fixed roster it spawns itself, and attached clusters
//! keep the same routing state elastic.
//!
//! All protocol logic lives in `prism_protocol`: server threads run the
//! engine's `ServerNode`, the announcer thread runs the engine's
//! `Announcer`, and [`NetCluster`] implements the engine's `ServerExec`
//! and the driver's `Deployment`, so the owners of a wire deployment are
//! the same `driver::Cluster` facade running the same round plans as
//! in-process; this crate only moves the engine's messages as bytes and
//! meters them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
mod executor;
pub mod mux;
pub mod registry;
mod router;
pub mod transport;
pub mod wire;

pub use cluster::{NetCluster, NetReport};
pub use mux::{Admission, MuxLink};
pub use registry::{
    AnnouncerNode, ClusterListener, ControlEvent, Liveness, RegistryConfig, ShardWorker,
};
pub use transport::{channel_pair, Link, NetError, TcpLink};
pub use wire::{Column, Message, Op, WireError};
