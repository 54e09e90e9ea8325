//! The asynchronous progress engine.
//!
//! The base runtime only makes communication progress when *some* thread
//! calls into the device — posting an operation, testing, or blocking in
//! [`Device::wait_with`]. A rank that computes while transfers are in
//! flight therefore leaves its device idle, which is exactly why the
//! measured comm/compute overlap sits far below 1.0 (EXPERIMENTS.md).
//! Following *MPI Progress For All* and *Examining MPI and its Extensions
//! for Asynchronous Multithreaded Communication*, this module adds two
//! asynchronous progress models on top of the lock-split device:
//!
//! * **`thread`** — a dedicated progress thread per device
//!   ([`ProgressEngine`]). Each thread runs batched pump passes
//!   ([`Device::progress_batched`]) while work moves and parks on the
//!   device's completion [`Waker`] when idle, so an idle engine costs a
//!   parked thread, not a spinning core.
//! * **`steal`** — `poke`-style stealable progress ([`ProgressSet`]): any
//!   rank thread parked in a wait drives its *siblings'* devices with
//!   non-blocking passes ([`Device::try_progress`]), so one blocked rank
//!   lends its cycles to ranks that are busy computing.
//!
//! Both models are **off by default**: mode `off` takes the exact legacy
//! code path, which the progress-conformance suite pins bit-for-bit.
//! Every engine entry point is also callable inline, which is how
//! `SimNet` runs the whole engine under its seeded single-threaded
//! scheduler — deterministic interleavings, no real threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::device::Device;

/// How communication progress is driven while rank threads compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// No asynchronous progress: the device moves only when a rank thread
    /// calls into it (post/test/wait). The legacy behavior, bit-for-bit.
    #[default]
    Off,
    /// One dedicated progress thread per device.
    Thread,
    /// Stealable progress: threads parked in waits pump sibling devices.
    Steal,
}

/// Progress-engine tuning. Build with [`ProgressConfig::thread`] /
/// [`ProgressConfig::steal`] or parse the `MOTOR_PROGRESS` environment
/// variable with [`ProgressConfig::from_env`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressConfig {
    /// The progress model.
    pub mode: ProgressMode,
    /// Maximum pump passes one batched engine poll chains together
    /// (completion batching: a CTS reply queued by pass *n* is flushed by
    /// pass *n+1* in the same poll instead of waiting for the next one).
    pub max_batch_passes: usize,
    /// How long an idle engine thread parks on the device waker before
    /// re-polling. New local work notifies the waker, so this bounds only
    /// the latency of *remotely* originated traffic reaching an idle
    /// device.
    pub idle_park: Duration,
}

/// Default batched passes per engine poll.
pub const DEFAULT_BATCH_PASSES: usize = 4;

impl Default for ProgressConfig {
    fn default() -> Self {
        ProgressConfig::off()
    }
}

impl ProgressConfig {
    /// Asynchronous progress disabled (the default).
    pub const fn off() -> Self {
        ProgressConfig {
            mode: ProgressMode::Off,
            max_batch_passes: DEFAULT_BATCH_PASSES,
            idle_park: Duration::from_micros(50),
        }
    }

    /// A dedicated progress thread per device.
    pub const fn thread() -> Self {
        let mut cfg = Self::off();
        cfg.mode = ProgressMode::Thread;
        cfg
    }

    /// Stealable progress from threads parked in waits.
    pub const fn steal() -> Self {
        let mut cfg = Self::off();
        cfg.mode = ProgressMode::Steal;
        cfg
    }

    /// Parse `MOTOR_PROGRESS` (`thread`, `steal`, `off`; anything else is
    /// rejected loudly rather than silently ignored). Returns `None` when
    /// the variable is unset or empty.
    pub fn from_env() -> Option<ProgressConfig> {
        let v = std::env::var("MOTOR_PROGRESS").ok()?;
        let v = v.trim();
        if v.is_empty() {
            return None;
        }
        match v.to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(Self::off()),
            "thread" | "1" => Some(Self::thread()),
            "steal" => Some(Self::steal()),
            other => panic!("MOTOR_PROGRESS: unknown mode {other:?} (use thread|steal|off)"),
        }
    }
}

/// The device's completion notifier: a generation counter bumped (and
/// broadcast) whenever *any* thread makes progress on the device. Waiters
/// park here instead of sleeping a blind quantum, so a completion
/// driven by a progress thread — or any other thread — wakes them
/// immediately rather than after up to one full sleep interval.
#[derive(Default)]
pub(crate) struct Waker {
    gen: Mutex<u64>,
    cv: Condvar,
}

impl Waker {
    /// Current generation; pass it to [`Waker::wait_next`].
    pub fn generation(&self) -> u64 {
        *self.gen.lock()
    }

    /// Progress happened: advance the generation and wake every waiter.
    pub fn notify(&self) {
        let mut g = self.gen.lock();
        *g = g.wrapping_add(1);
        drop(g);
        self.cv.notify_all();
    }

    /// Park until the generation moves past `seen` or `timeout` elapses.
    /// Progress between reading `seen` and parking is never missed: the
    /// generation is re-checked under the lock. Returns the generation
    /// observed on wakeup.
    pub fn wait_next(&self, seen: u64, timeout: Duration) -> u64 {
        let mut g = self.gen.lock();
        if *g == seen {
            let _ = self.cv.wait_for(&mut g, timeout);
        }
        *g
    }
}

/// The steal registry: every device in a universe, so a thread parked in
/// one rank's wait can drive the others' pending operations.
#[derive(Default)]
pub struct ProgressSet {
    devices: Mutex<Vec<Weak<Device>>>,
}

impl ProgressSet {
    /// An empty set.
    pub fn new() -> Arc<ProgressSet> {
        Arc::new(ProgressSet::default())
    }

    /// Add a device to the steal pool.
    pub fn register(&self, device: &Arc<Device>) {
        self.devices.lock().push(Arc::downgrade(device));
    }

    /// One steal sweep on behalf of rank `thief`: a single non-blocking
    /// pump pass over every *other* live device, skipping any link whose
    /// lock its owner already holds (the owner is pumping it — blocking
    /// here would serialize thief and owner on exactly the lock the split
    /// removed). Returns whether anything moved anywhere.
    pub fn steal(&self, thief: usize) -> bool {
        let victims: Vec<Arc<Device>> = {
            let devices = self.devices.lock();
            devices.iter().filter_map(Weak::upgrade).collect()
        };
        let mut moved = false;
        for victim in victims {
            if victim.rank() == thief {
                continue;
            }
            if victim.steal_pass().unwrap_or(false) {
                moved = true;
            }
        }
        moved
    }
}

/// Dedicated progress threads, one per attached device. Threads run
/// batched pump passes while work moves and park on the device waker when
/// the device goes quiet; [`ProgressEngine::stop`] parks them permanently
/// and joins.
pub struct ProgressEngine {
    config: ProgressConfig,
    stop: Arc<AtomicBool>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    devices: Mutex<Vec<Arc<Device>>>,
}

impl ProgressEngine {
    /// An engine with no threads yet; [`attach`](Self::attach) devices.
    pub fn new(config: ProgressConfig) -> ProgressEngine {
        ProgressEngine {
            config,
            stop: Arc::new(AtomicBool::new(false)),
            threads: Mutex::new(Vec::new()),
            devices: Mutex::new(Vec::new()),
        }
    }

    /// Spawn the progress thread for `device`.
    pub fn attach(&self, device: Arc<Device>) {
        let stop = Arc::clone(&self.stop);
        let cfg = self.config;
        self.devices.lock().push(Arc::clone(&device));
        let handle = std::thread::Builder::new()
            .name(format!("motor-progress-{}", device.rank()))
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let gen = device.progress_generation();
                    let moved = device
                        .progress_batched(cfg.max_batch_passes, true)
                        .unwrap_or(false);
                    if !moved {
                        // Quiet device: park until local activity (a post,
                        // a pump that moved) notifies, or the idle-park
                        // interval elapses — the poll cadence for traffic
                        // that originates at a remote peer.
                        device.park_until_progress(gen, cfg.idle_park);
                    }
                }
            })
            .expect("spawn progress thread");
        self.threads.lock().push(handle);
    }

    /// Stop and join every progress thread. Idempotent.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        // Parked threads re-check the flag as soon as their waker fires.
        for d in self.devices.lock().iter() {
            d.notify_progress();
        }
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ProgressEngine {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waker_generation_advances_and_wakes() {
        let w = Arc::new(Waker::default());
        let g0 = w.generation();
        let w2 = Arc::clone(&w);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w2.notify();
        });
        // A long timeout that the notify must cut short.
        let g1 = w.wait_next(g0, Duration::from_secs(30));
        t.join().unwrap();
        assert_eq!(g1, g0 + 1);
    }

    #[test]
    fn waker_never_misses_a_pre_wait_notify() {
        let w = Waker::default();
        let g0 = w.generation();
        w.notify();
        // Generation already moved: returns immediately, no timeout burn.
        let start = std::time::Instant::now();
        let g1 = w.wait_next(g0, Duration::from_secs(30));
        assert!(g1 > g0);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn from_env_parses_all_modes() {
        // Serialized via env guard: these tests run in one process.
        std::env::set_var("MOTOR_PROGRESS", "thread");
        assert_eq!(
            ProgressConfig::from_env().unwrap().mode,
            ProgressMode::Thread
        );
        std::env::set_var("MOTOR_PROGRESS", "STEAL");
        assert_eq!(
            ProgressConfig::from_env().unwrap().mode,
            ProgressMode::Steal
        );
        std::env::set_var("MOTOR_PROGRESS", "off");
        assert_eq!(ProgressConfig::from_env().unwrap().mode, ProgressMode::Off);
        std::env::set_var("MOTOR_PROGRESS", "");
        assert!(ProgressConfig::from_env().is_none());
        std::env::remove_var("MOTOR_PROGRESS");
        assert!(ProgressConfig::from_env().is_none());
    }
}
