//! Noise hygiene on a virtual machine: keep every hardware thread from
//! halting while a workload is measured.
//!
//! These workloads sleep and wake threads thousands of times a second.
//! On a VM every wake-up of a halted vCPU has to wait for the host to
//! schedule it again, and how long that takes depends on the host's other
//! tenants: measured here, 5–25 % of the VM's CPU time stolen, moving
//! every latency by tens of percent from one minute to the next. One
//! spinning process per hardware thread, under the `SCHED_IDLE` policy,
//! removes the halts: the guest scheduler still treats the CPU as idle
//! (any other thread preempts the spinner at once and is placed there
//! first), but the vCPU never gives its time slice back to the host. The
//! spinners are processes of their own, so their CPU time is not the
//! workload's.

use std::io::Read;
use std::process::{Child, Command, Stdio};

/// Set for every process below the one that started the spinners, to
/// their number, so that a child of the benchmark does not start more.
const INHERITED: &str = "PRISM_BENCHMARK_SPINNERS";

/// The spinners of this run; they end when this is dropped.
pub struct Awake {
    spinners: Vec<Child>,
    /// Spinners a parent process of the benchmark keeps running.
    inherited: usize,
}

/// One spinner under the first launcher that works: `chrt -i 0`
/// (`SCHED_IDLE`) or, where util-linux is missing or a sandbox refuses
/// the policy, `nice -n 19`.
fn spinner(exe: &std::path::Path) -> Option<Child> {
    [&["chrt", "-i", "0"][..], &["nice", "-n", "19"]]
        .iter()
        .find_map(|launcher| {
            let mut child = Command::new(launcher[0])
                .args(&launcher[1..])
                .arg(exe)
                .arg("spin")
                .stdin(Stdio::piped())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .ok()?;
            // A launcher that cannot set the priority exits at once
            // instead of becoming the spinner.
            std::thread::sleep(std::time::Duration::from_millis(20));
            matches!(child.try_wait(), Ok(None)).then_some(child)
        })
}

impl Awake {
    /// Start one spinner per hardware thread, unless a parent process of
    /// the benchmark already runs them. Where none can be started the run
    /// goes on without, and `count` says so. Call before any thread is
    /// spawned: it sets an environment variable for the children.
    pub fn start() -> Awake {
        let inherited = std::env::var(INHERITED).ok().and_then(|n| n.parse().ok());
        if let Some(inherited) = inherited {
            return Awake {
                spinners: Vec::new(),
                inherited,
            };
        }
        let spinners: Vec<Child> = match std::env::current_exe() {
            Ok(exe) => (0..crate::procfs::nproc())
                .map_while(|_| spinner(&exe))
                .collect(),
            Err(_) => Vec::new(),
        };
        std::env::set_var(INHERITED, spinners.len().to_string());
        Awake {
            spinners,
            inherited: 0,
        }
    }

    /// Spinners running now.
    pub fn count(&self) -> usize {
        self.spinners.len() + self.inherited
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        for child in &mut self.spinners {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// What a spinner runs: spin until it is killed, or until standard input
/// closes, which it does when the benchmark dies without dropping its
/// [`Awake`].
pub fn spin() -> ! {
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        while matches!(std::io::stdin().read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(0);
    });
    loop {
        std::hint::spin_loop();
    }
}
