//! What every workload shares: the cluster configuration, the run plan,
//! the per-segment results, count agreement between the two ranks and
//! windowed metrics snapshots.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use motor_core::cluster::{run_cluster, ClusterConfig, MotorProc};
use motor_mpc::universe::UniverseConfig;
use motor_mpc::ProgressConfig;
use motor_obs::MetricsSnapshot;
use motor_pal::link::{shm_pair, ShmLink};
use motor_runtime::TypeRegistry;

use crate::exchange::Phase;
use crate::stats::Durations;
use crate::trace::SpanAgg;

/// Measured seconds per segment. Each segment is a fresh cluster, set up
/// and timed from scratch: how a cluster's threads and buffers happen to
/// be placed moves its latencies by up to ±10%, so a run pools many
/// clusters, and `setup_s` and `peak_rss_mb` are medians over them.
pub const SEGMENT_SECONDS: f64 = 0.25;

/// Tag of the benchmark's control messages, which are never timed.
const CTRL_TAG: i32 = 0x7e57;

/// Share of a traced segment given to each of its phases.
pub const TRACED_UNTRACED: f64 = 0.2;
pub const TRACED_TRACED: f64 = 0.3;
pub const TRACED_RUNG: f64 = 0.08;
pub const TRACED_SERIAL: f64 = 0.1;

/// Two ranks over the shm channel, progress off (the shipped default), no
/// doctor or telemetry.
pub fn cluster_config() -> ClusterConfig {
    ClusterConfig::builder()
        .ranks(2)
        .progress(ProgressConfig::off())
        .build()
}

/// How one segment runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub segments: usize,
    pub segment: Duration,
    pub traced: bool,
}

impl Plan {
    /// Ops that fill `share` of the segment at `op_s` seconds each.
    pub fn count(&self, share: f64, op_s: f64) -> u64 {
        let budget = self.segment.as_secs_f64() * share;
        ((budget / op_s.max(1e-9)).round() as u64).clamp(1, 50_000_000)
    }
}

/// Results of one or more segments; ranks add to it under a lock.
#[derive(Debug, Clone)]
pub struct Seg {
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Timings by name.
    pub samples: BTreeMap<&'static str, Durations>,
    /// Both ranks' metrics over the untraced timed window.
    pub window: MetricsSnapshot,
    pub window_ops: u64,
    pub window_ns: u64,
    /// Workload facts such as message size (last segment wins).
    pub facts: BTreeMap<&'static str, f64>,
    pub spans: SpanAgg,
    /// p50 and p99 of the main op in each segment, in µs.
    pub per_segment: Vec<(f64, f64)>,
    /// Peak RSS of each segment, in MiB.
    pub peak_rss_mb: Vec<f64>,
}

impl Default for Seg {
    fn default() -> Seg {
        Seg {
            setup_s: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            samples: BTreeMap::new(),
            window: MetricsSnapshot::empty(),
            window_ops: 0,
            window_ns: 0,
            facts: BTreeMap::new(),
            spans: SpanAgg::default(),
            per_segment: Vec::new(),
            peak_rss_mb: Vec::new(),
        }
    }
}

impl Seg {
    pub fn merge(&mut self, o: Seg) {
        self.setup_s.extend(o.setup_s);
        self.attempted += o.attempted;
        self.failed += o.failed;
        for e in o.errors {
            self.error(e);
        }
        for (k, v) in o.samples {
            self.samples.entry(k).or_default().merge(&v);
        }
        self.window.merge(&o.window);
        self.window_ops += o.window_ops;
        self.window_ns += o.window_ns;
        self.facts.extend(o.facts);
        self.spans.merge(o.spans);
        self.per_segment.extend(o.per_segment);
        self.peak_rss_mb.extend(o.peak_rss_mb);
    }

    /// Count one failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.error(what.into());
    }

    fn error(&mut self, e: String) {
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    pub fn sample(&mut self, name: &'static str, us: f64) {
        self.samples
            .entry(name)
            .or_default()
            .record_ns((us * 1e3).round() as u64);
    }
}

/// One rank's view of a running segment.
pub struct Ctx {
    pub plan: Plan,
    pub called: Instant,
    /// The raw link pair of the ladder's bottom rung (traced runs only).
    links: Mutex<[Option<ShmLink>; 2]>,
}

impl Ctx {
    /// This rank's end of the raw shm link.
    pub fn take_link(&self, rank: usize) -> Option<ShmLink> {
        self.links.lock().expect("link lock poisoned")[rank].take()
    }
}

/// Run `plan.segments` clusters back to back, each for `plan.segment`.
/// An error from `body` ends that rank's part of the segment and counts as
/// a failed op.
pub fn run_segments<D, B>(plan: Plan, define: D, body: B) -> Seg
where
    D: Fn(&mut TypeRegistry) + Send + Sync,
    B: Fn(&MotorProc, &Ctx, &mut Seg) -> Result<(), String> + Send + Sync,
{
    let mut all = Seg::default();
    for _ in 0..plan.segments {
        let out = Mutex::new(Seg::default());
        let links = if plan.traced {
            let (a, b) = shm_pair(UniverseConfig::default().ring_capacity);
            [Some(a), Some(b)]
        } else {
            [None, None]
        };
        crate::sys::reset_peak_rss();
        let called = Instant::now();
        let ctx = Ctx {
            plan,
            called,
            links: Mutex::new(links),
        };
        let res = run_cluster(cluster_config(), &define, |proc| {
            let mut local = Seg::default();
            if proc.rank() == 0 {
                local.sample("bringup", us_since(ctx.called));
            }
            if let Err(e) = body(proc, &ctx, &mut local) {
                local.fail(e);
            }
            out.lock().expect("segment lock poisoned").merge(local);
        });
        let mut seg = out.into_inner().expect("segment lock poisoned");
        seg.peak_rss_mb.push(crate::sys::peak_rss_mb());
        if let Err(e) = res {
            seg.attempted += 1;
            seg.fail(format!("cluster: {e}"));
        }
        if let Some(d) = seg.samples.get("op").filter(|d| d.count() > 0) {
            seg.per_segment
                .push((d.quantile_us(0.5), d.quantile_us(0.99)));
        }
        all.merge(seg);
    }
    all
}

/// Rank 0 tells rank 1 the op counts of the coming phases; both return
/// them. The exchange is a control message outside every timed window.
pub fn agree(proc: &MotorProc, counts: &[u64]) -> Result<Vec<u64>, String> {
    let comm = proc.comm();
    let mut buf = vec![0u8; counts.len() * 8];
    if proc.rank() == 0 {
        for (c, v) in buf.chunks_mut(8).zip(counts) {
            c.copy_from_slice(&v.to_le_bytes());
        }
        comm.send_bytes(&buf, 1, CTRL_TAG)
            .map_err(|e| format!("control send: {e}"))?;
    } else {
        comm.recv_bytes(&mut buf, 0, CTRL_TAG)
            .map_err(|e| format!("control recv: {e}"))?;
    }
    Ok(buf
        .chunks(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect())
}

/// A metrics window over one rank's part of a timed phase.
pub struct Window {
    start: MetricsSnapshot,
    t0: Instant,
}

impl Window {
    pub fn open(proc: &MotorProc) -> Window {
        Window {
            start: proc.metrics().without_events(),
            t0: Instant::now(),
        }
    }

    /// Close the window into `seg`; rank 0 also records the ops and wall
    /// time the window covered.
    pub fn close(self, proc: &MotorProc, ops: u64, seg: &mut Seg) {
        let ns = self.t0.elapsed().as_nanos() as u64;
        let end = proc.metrics().without_events();
        seg.window.merge(&end.diff(&self.start));
        if proc.rank() == 0 {
            seg.window_ops += ops;
            seg.window_ns += ns;
        }
    }
}

/// Microseconds since `t0`.
pub fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1e3
}

/// Mean of the second half of `samples` (the first half warms caches and
/// queues), in seconds.
pub fn warm_estimate_s(samples_us: &[f64]) -> f64 {
    let tail = &samples_us[samples_us.len() / 2..];
    tail.iter().sum::<f64>() / tail.len().max(1) as f64 / 1e6
}

/// The timed phases of a workload's main loop. A traced run also times an
/// untraced share, so the tracing cost is measured in the same process.
pub fn main_phases(traced: bool) -> Vec<Phase> {
    let untraced = Phase {
        name: "op",
        share: if traced { TRACED_UNTRACED } else { 1.0 },
        traced: false,
        window: true,
    };
    if !traced {
        return vec![untraced];
    }
    vec![
        untraced,
        Phase {
            name: "op_traced",
            share: TRACED_TRACED,
            traced: true,
            window: false,
        },
    ]
}
