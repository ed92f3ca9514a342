//! Bad: concurrency primitives inside the determinism zone, which is
//! single-threaded. Threads, locks, channels, and atomics make the
//! schedule (and therefore replay) depend on the OS.

use std::sync::atomic::AtomicU64;
use std::sync::{mpsc, Mutex, RwLock};

/// Lock-guarded counters: contention order is scheduling-dependent.
pub struct Counters {
    /// Total exchanges, behind a lock.
    pub total: Mutex<u64>,
    /// Reader-heavy view of the same thing.
    pub view: RwLock<u64>,
    /// Lock-free variant — still an ordering hazard.
    pub hits: AtomicU64,
}

/// Spawns an unmanaged worker and races it against the caller.
pub fn fan_out() -> u64 {
    let (tx, rx) = mpsc::channel::<u64>();
    std::thread::spawn(move || {
        let _ = tx.send(1);
    });
    rx.recv().unwrap_or(0)
}
