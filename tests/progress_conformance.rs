//! Progress-conformance suite: the asynchronous progress engine must add
//! *progress*, never *semantics*.
//!
//! Three families of guarantees, per ISSUE 10:
//!
//! * **(a) Autonomy** — with a progress thread per device, Isend/Irecv
//!   pairs complete while the owning rank threads do nothing but watch
//!   the completion flag: no `wait`, no `test`, no progress call ever.
//! * **(b) Semantics under faults** — with the engine on (`thread` and
//!   `steal` modes, emulated deterministically by `SimNet`), the MPI
//!   contracts still hold under trickle wires, stall windows and
//!   mid-message link death: non-overtaking per (source, tag, context),
//!   `ANY_SOURCE` FIFO per sender, clean `PeerClosed` instead of hangs.
//! * **(c) Legacy equivalence** — engine `off` IS the old code path:
//!   across the frozen seed matrix, a run with the default config and a
//!   run with progress explicitly `off` produce identical schedule
//!   fingerprints (steps, virtual clock, protocol counters), twice over.
//!
//! Blocking calls other than `wait` hold the same line: a `probe` or a
//! `waitany` on a peer whose link dies fails with `PeerClosed` in every
//! mode, including `off`, instead of spinning forever.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use motor::mpc::device::DeviceConfig;
use motor::mpc::universe::{Universe, UniverseConfig};
use motor::mpc::{MpcError, MpcResult, ProgressConfig, ProgressMode, Source};
use motor::obs::Metric;
use motor::pal::TickSource;
use motor_sim::{seed_matrix, FaultPlan, Schedule, SimConfig, SimFabric, SimNet};

/// Threshold small enough that both protocols appear in mixed workloads.
const EAGER_T: usize = 64;

fn sim_config(
    ranks: usize,
    plan: FaultPlan,
    schedule: Schedule,
    progress: ProgressConfig,
) -> SimConfig {
    SimConfig {
        ranks,
        device: DeviceConfig {
            eager_threshold: EAGER_T,
            ..DeviceConfig::default()
        },
        schedule,
        plan,
        progress,
    }
}

/// The progress modes under test, with their display names: the engine
/// modes, plus `off` when `with_off` is set. `MOTOR_PROGRESS` narrows the
/// matrix to one mode so CI can run (and attribute failures to) `thread`
/// and `steal` as separate jobs; unset runs them all.
fn modes(with_off: bool) -> Vec<(ProgressConfig, &'static str)> {
    let mut all = vec![
        (ProgressConfig::thread(), "thread"),
        (ProgressConfig::steal(), "steal"),
    ];
    if with_off {
        all.insert(0, (ProgressConfig::off(), "off"));
    }
    match std::env::var("MOTOR_PROGRESS") {
        Ok(v) if !v.trim().is_empty() => {
            let v = v.trim().to_ascii_lowercase();
            let picked: Vec<_> = all.into_iter().filter(|(_, name)| **name == v).collect();
            assert!(
                !picked.is_empty(),
                "MOTOR_PROGRESS={v:?} names no mode under test here (use thread|steal, or unset for all)"
            );
            picked
        }
        _ => all,
    }
}

/// Device-level isend on the fabric (test buffers outlive the drive loop).
fn send(net: &SimNet, from: usize, to: usize, tag: i32, data: &[u8]) -> motor::mpc::Request {
    // SAFETY: every caller keeps `data` alive until the request completes.
    unsafe {
        net.device(from)
            .isend_raw(
                to,
                SimNet::envelope(from, tag),
                data.as_ptr(),
                data.len(),
                false,
            )
            .unwrap()
    }
}

/// Device-level irecv on the fabric.
fn recv(net: &SimNet, at: usize, src: i32, tag: i32, buf: &mut [u8]) -> motor::mpc::Request {
    // SAFETY: as in `send`.
    unsafe {
        net.device(at)
            .irecv_raw(src, tag, 0, buf.as_mut_ptr(), buf.len())
            .unwrap()
    }
}

// ----------------------------------------------------------------------
// (a) Autonomy: the engine completes operations the ranks never drive.
// ----------------------------------------------------------------------

/// 4-rank ring exchange over the real threaded stack with a progress
/// thread per device. After posting, each rank only *watches* its
/// requests — no wait, no test, no progress — so every byte that arrives
/// was moved by an engine thread.
#[test]
fn isend_irecv_complete_without_owner_entering_wait() {
    const N: usize = 4;
    const LEN: usize = 32 * 1024; // eager at the default threshold
    let cfg = UniverseConfig {
        progress: ProgressConfig::thread(),
        ..UniverseConfig::default()
    };
    let engine_completions = AtomicU64::new(0);
    let posted = std::sync::Barrier::new(N);
    Universe::run_with(N, cfg, |proc| {
        let world = proc.world();
        let me = world.rank();
        let to = (me + 1) % N;
        let from = (me + N - 1) % N;
        let data = vec![me as u8 + 1; LEN];
        let mut buf = vec![0u8; LEN];
        // SAFETY: data/buf live to the end of this closure, past both
        // completion spins below.
        let r = unsafe { world.irecv_ptr(buf.as_mut_ptr(), buf.len(), from, 7) }.unwrap();
        // Posting runs one inline progress pass on the owner (not an
        // engine poll), so a receive whose data is already in the ring at
        // post time would be completed by the *rank* thread — on a loaded
        // single-core host that can very occasionally absorb every eager
        // receive and starve the `ProgressOpsCompleted` assertion below.
        // The barrier plus rank 0's delayed send pin the order: rank 1
        // finishes all of its posts before rank 0's payload can exist on
        // the wire, so rank 1's receive is completable only by an engine
        // poll, deterministically.
        posted.wait();
        if me == 0 {
            std::thread::sleep(Duration::from_millis(250));
        }
        let s = unsafe { world.isend_ptr(data.as_ptr(), data.len(), to, 7) }.unwrap();
        // The owning rank never enters wait: it sleeps and watches. Only
        // the progress threads can finish these.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !(s.is_complete() && r.is_complete()) {
            assert!(
                Instant::now() < deadline,
                "rank {me}: progress threads did not complete the exchange"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(buf, vec![from as u8 + 1; LEN], "payload from rank {from}");
        engine_completions.fetch_add(
            proc.device()
                .metrics()
                .snapshot()
                .get(Metric::ProgressOpsCompleted),
            Ordering::Relaxed,
        );
    })
    .unwrap();
    assert!(
        engine_completions.load(Ordering::Relaxed) > 0,
        "engine polls completed requests (the ranks never drove progress)"
    );
}

/// Same autonomy through the rendezvous protocol: the engine must carry
/// the full RTS → CTS → data → done conversation on both ends.
#[test]
fn rendezvous_completes_without_owner_entering_wait() {
    let cfg = UniverseConfig {
        device: DeviceConfig {
            eager_threshold: EAGER_T,
            ..DeviceConfig::default()
        },
        progress: ProgressConfig::thread(),
        ..UniverseConfig::default()
    };
    Universe::run_with(2, cfg, |proc| {
        let world = proc.world();
        let n = 100_000usize;
        if world.rank() == 0 {
            let data: Vec<u8> = (0..n).map(|i| (i % 239) as u8).collect();
            // SAFETY: data lives past the completion spin.
            let s = unsafe { world.isend_ptr(data.as_ptr(), n, 1, 3) }.unwrap();
            let deadline = Instant::now() + Duration::from_secs(30);
            while !s.is_complete() {
                assert!(Instant::now() < deadline, "rendezvous send starved");
                std::thread::sleep(Duration::from_millis(1));
            }
        } else {
            let mut buf = vec![0u8; n];
            // SAFETY: buf lives past the completion spin.
            let r = unsafe { world.irecv_ptr(buf.as_mut_ptr(), n, 0, 3) }.unwrap();
            let deadline = Instant::now() + Duration::from_secs(30);
            while !r.is_complete() {
                assert!(Instant::now() < deadline, "rendezvous recv starved");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(buf.iter().enumerate().all(|(i, &b)| b == (i % 239) as u8));
        }
    })
    .unwrap();
}

// ----------------------------------------------------------------------
// (b) Semantics with the engine on, under fault plans.
// ----------------------------------------------------------------------

/// Non-overtaking per (source, tag, context) with eager and rendezvous
/// interleaved, under a trickle+latency wire with stall windows — in both
/// engine modes, across the seed matrix.
#[test]
fn non_overtaking_holds_with_engine_on() {
    let sizes = [16usize, 200, 8, 300, 1, EAGER_T, EAGER_T + 1, 500, 32, 100];
    for (progress, mode) in modes(false) {
        for seed in seed_matrix() {
            let mut net = SimNet::new(
                seed,
                sim_config(
                    2,
                    FaultPlan::trickle(3).with_latency(1).with_stall(64),
                    Schedule::Random,
                    progress,
                ),
            );
            let payloads: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &sz)| vec![i as u8 + 1; sz])
                .collect();
            let mut bufs: Vec<Vec<u8>> = sizes.iter().map(|&sz| vec![0u8; sz]).collect();
            let mut reqs = Vec::new();
            for p in &payloads {
                reqs.push(send(&net, 0, 1, 7, p));
            }
            // Alternate pre-posted and late-posted receives by seed.
            if seed % 2 == 1 {
                net.run_until(20_000, || false).unwrap();
            }
            for b in &mut bufs {
                reqs.push(recv(&net, 1, 0, 7, b));
            }
            net.complete(&reqs, 3_000_000, "non_overtaking_holds_with_engine_on");
            for (i, (buf, want)) in bufs.iter().zip(&payloads).enumerate() {
                if buf != want {
                    net.fail(
                        "non_overtaking_holds_with_engine_on",
                        &format!("mode {mode}: message {i} overtaken or corrupted"),
                    );
                }
            }
        }
    }
}

/// `ANY_SOURCE` receives drain every sender and stay FIFO per sender with
/// the engine on, in both modes, across the seed matrix.
#[test]
fn any_source_fifo_holds_with_engine_on() {
    const PER_SENDER: usize = 3;
    for (progress, mode) in modes(false) {
        for seed in seed_matrix() {
            let mut net = SimNet::new(
                seed,
                sim_config(4, FaultPlan::trickle(2), Schedule::Random, progress),
            );
            let payloads: Vec<(usize, Vec<u8>)> = (1..4)
                .flat_map(|r| (0..PER_SENDER).map(move |j| (r, vec![(10 * r + j) as u8; 8])))
                .collect();
            let mut bufs = vec![[0u8; 8]; payloads.len()];
            let mut reqs = Vec::new();
            for (r, p) in &payloads {
                reqs.push(send(&net, *r, 0, 5, p));
            }
            if seed % 2 == 1 {
                net.run_until(20_000, || false).unwrap();
            }
            for b in &mut bufs {
                reqs.push(recv(&net, 0, -1, 5, b));
            }
            net.complete(&reqs, 3_000_000, "any_source_fifo_holds_with_engine_on");

            let got: Vec<u8> = bufs.iter().map(|b| b[0]).collect();
            let mut sorted = got.clone();
            sorted.sort_unstable();
            let mut want: Vec<u8> = payloads.iter().map(|(_, p)| p[0]).collect();
            want.sort_unstable();
            if sorted != want {
                net.fail(
                    "any_source_fifo_holds_with_engine_on",
                    &format!("mode {mode}: wildcards did not drain the sent multiset"),
                );
            }
            for r in 1..4u8 {
                let js: Vec<u8> = got
                    .iter()
                    .filter(|&&b| b / 10 == r)
                    .map(|&b| b % 10)
                    .collect();
                if !js.windows(2).all(|w| w[0] < w[1]) {
                    net.fail(
                        "any_source_fifo_holds_with_engine_on",
                        &format!("mode {mode}: messages from rank {r} reordered: {js:?}"),
                    );
                }
            }
        }
    }
}

/// Mid-message link death with the engine on still surfaces a clean
/// `PeerClosed` within the budget — the engine's extra pump passes must
/// not mask or mangle the failure path.
#[test]
fn mid_message_death_fails_cleanly_with_engine_on() {
    for (progress, mode) in modes(false) {
        for seed in seed_matrix() {
            let mut net = SimNet::new(
                seed,
                sim_config(
                    2,
                    FaultPlan::trickle(8).with_close_after(700),
                    Schedule::Random,
                    progress,
                ),
            );
            let data = vec![0x5Au8; 5000];
            let mut buf = vec![0u8; 5000];
            let s = send(&net, 0, 1, 2, &data);
            let r = recv(&net, 1, 0, 2, &mut buf);
            let failed = net
                .run_until(1_000_000, || {
                    s.failed_peer().is_some() || r.failed_peer().is_some()
                })
                .unwrap();
            if !failed {
                net.fail(
                    "mid_message_death_fails_cleanly_with_engine_on",
                    &format!("mode {mode}: link fuse blew but no request failed"),
                );
            }
            let who = if s.failed_peer().is_some() {
                (&s, 0)
            } else {
                (&r, 1)
            };
            match net.device(who.1).wait_with(who.0, || {}) {
                Err(MpcError::PeerClosed(_)) => {}
                other => panic!("mode {mode}: expected PeerClosed, got {other:?} (seed {seed})"),
            }
            let dropped: u64 = (0..2)
                .map(|d| net.device(d).metrics().snapshot().get(Metric::LinksDropped))
                .sum();
            assert!(dropped >= 1, "mode {mode}: LinksDropped (seed {seed})");
        }
    }
}

// ----------------------------------------------------------------------
// (c) Engine off == legacy, bit-for-bit on the frozen seed matrix.
// ----------------------------------------------------------------------

/// Schedule fingerprint of one mixed eager/rendezvous workload.
fn off_mode_fingerprint(seed: u64, progress: ProgressConfig) -> (u64, u64, Vec<u64>) {
    assert_eq!(progress.mode, ProgressMode::Off);
    let mut net = SimNet::new(
        seed,
        sim_config(
            3,
            FaultPlan::trickle(4).with_latency(2).with_stall(32),
            Schedule::Random,
            progress,
        ),
    );
    let small = vec![0x11u8; 32];
    let large = vec![0x22u8; 900];
    let mut b0 = vec![0u8; 32];
    let mut b1 = vec![0u8; 900];
    let mut b2 = vec![0u8; 32];
    let reqs = vec![
        send(&net, 0, 2, 1, &small),
        send(&net, 1, 2, 1, &large),
        send(&net, 2, 0, 4, &small),
        recv(&net, 2, 0, 1, &mut b0),
        recv(&net, 2, 1, 1, &mut b1),
        recv(&net, 0, 2, 4, &mut b2),
    ];
    net.complete(&reqs, 3_000_000, "engine_off_is_bit_for_bit_legacy");
    let mut counters = Vec::new();
    for d in net.devices() {
        let snap = d.metrics().snapshot();
        for m in [
            Metric::ProgressPolls,
            Metric::MatchAttempts,
            Metric::SendsEager,
            Metric::SendsRndv,
            Metric::RndvCtsIn,
            Metric::RndvDone,
            Metric::ProgressOpsCompleted,
            Metric::ProgressSteals,
        ] {
            counters.push(snap.get(m));
        }
    }
    (net.steps(), net.clock().now_ticks(), counters)
}

/// Mode `off` takes the exact legacy code path: a default config and an
/// explicit `off` config replay the same seed to the same step count,
/// virtual-clock time and counter values — and repeat runs are identical,
/// so the fingerprint really is a function of the seed alone. The engine
/// counters must stay at zero: off means off.
#[test]
fn engine_off_is_bit_for_bit_legacy() {
    for seed in seed_matrix() {
        let default_run = off_mode_fingerprint(seed, ProgressConfig::default());
        let explicit_off = off_mode_fingerprint(seed, ProgressConfig::off());
        let replay = off_mode_fingerprint(seed, ProgressConfig::default());
        assert_eq!(
            default_run, explicit_off,
            "default vs explicit off diverged (seed {seed})"
        );
        assert_eq!(default_run, replay, "replay diverged (seed {seed})");
        // No engine fingerprints in off mode.
        let per_dev = 8;
        for (i, chunk) in default_run.2.chunks(per_dev).enumerate() {
            assert_eq!(chunk[6], 0, "rank {i}: ProgressOpsCompleted in off mode");
            assert_eq!(chunk[7], 0, "rank {i}: ProgressSteals in off mode");
        }
    }
}

// ----------------------------------------------------------------------
// Blocking calls on a dead peer fail instead of spinning.
// ----------------------------------------------------------------------

/// Run `f` on its own thread and return its result, failing the test with
/// a message if it is still running after 60 s (a hang becomes a failure,
/// not a stuck CI job).
fn within_deadline<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(v) => {
            runner.join().expect("runner finished after sending");
            v
        }
        // A hung runner cannot be joined; the test process reaps it.
        Err(RecvTimeoutError::Timeout) => panic!("{what}: still blocked after 60 s"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("runner dropped its sender"))
        }
    }
}

/// The blocking call rank 1 makes while rank 0's link dies.
#[derive(Clone, Copy, Debug)]
enum DeadPeerCall {
    /// `probe` for a tag rank 0 never sends.
    Probe,
    /// `waitany` over two receives for tags rank 0 never sends.
    Waitany,
}

/// Two threaded ranks over a wire that dies 700 bytes into rank 0's
/// 5000-byte eager send; returns what rank 1's blocking `call` returned.
/// Rank 0 starts sending only once rank 1 has posted its receives, so the
/// receives are live when the link dies.
fn dead_peer_outcome(progress: ProgressConfig, call: DeadPeerCall) -> MpcResult<()> {
    let fabric = SimFabric::new(42, FaultPlan::trickle(8).with_close_after(700));
    let cfg = UniverseConfig {
        link_factory: Some(fabric.factory()),
        progress,
        ..UniverseConfig::default()
    };
    let posted = Barrier::new(2);
    let outcome = Mutex::new(None);
    Universe::run_with(2, cfg, |proc| {
        let world = proc.world();
        if world.rank() == 0 {
            posted.wait();
            // The fuse blows mid-frame, before or after this returns.
            let _ = world.send_bytes(&[0x5Au8; 5000], 1, 1);
            return;
        }
        let result = match call {
            DeadPeerCall::Probe => {
                posted.wait();
                world.probe(Source::Rank(0), 99).map(drop)
            }
            DeadPeerCall::Waitany => {
                let mut a = vec![0u8; 16];
                let mut b = vec![0u8; 16];
                // SAFETY: both windows outlive the wait below; a receive
                // failed by the dead link is never written afterwards.
                let reqs = unsafe {
                    [
                        world.irecv_ptr(a.as_mut_ptr(), a.len(), 0, 2).unwrap(),
                        world.irecv_ptr(b.as_mut_ptr(), b.len(), 0, 3).unwrap(),
                    ]
                };
                posted.wait();
                world.waitany(&reqs).map(drop)
            }
        };
        *outcome.lock().unwrap() = Some(result);
    })
    .unwrap();
    let result = outcome.lock().unwrap().take();
    result.expect("rank 1 recorded an outcome")
}

/// A blocking `probe` for a message a dead peer will never send, and a
/// `waitany` over receives from it, both return `PeerClosed` — in every
/// progress mode. Before the single polling-wait, the directed probe
/// spun forever: the dead link left nothing in the unexpected queue and
/// the probe loop had no dead-peer rule.
#[test]
fn probe_and_waitany_on_dead_peer_return_peer_closed() {
    for (progress, mode) in modes(true) {
        for call in [DeadPeerCall::Probe, DeadPeerCall::Waitany] {
            let what = format!("mode {mode}: {call:?} on a dead peer");
            match within_deadline(&what, move || dead_peer_outcome(progress, call)) {
                Err(MpcError::PeerClosed(0)) => {}
                other => panic!("{what}: expected PeerClosed(0), got {other:?}"),
            }
        }
    }
}
