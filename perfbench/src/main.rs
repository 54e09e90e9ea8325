//! Motor's benchmark: closed-loop, two-rank workloads over the in-process
//! shm channel, every result checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pingpong-small|pingpong-large|objects|cg> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `NOTES.md`). The last line of standard output is one JSON
//! object; the lines before it name every metric with its unit and sample
//! count. The exit code is 1 when any operation failed or a check did not
//! hold, 2 on bad arguments or a forbidden environment variable.

mod bench;
mod cg;
mod exchange;
mod ladder;
mod objects;
mod pingpong;
mod stats;
mod sys;
mod trace;

use std::time::Duration;

use motor_obs::{Hist, Metric};

use bench::{run_segments, Plan, Seg, SEGMENT_SECONDS};
use stats::{median, ratio, summarize};

/// Waits longer than this reached the device's 100 µs park.
const PARK_NS: u64 = 1 << 16;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    PingpongSmall,
    PingpongLarge,
    Objects,
    Cg,
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("pingpong-small", Workload::PingpongSmall),
    ("pingpong-large", Workload::PingpongLarge),
    ("objects", Workload::Objects),
    ("cg", Workload::Cg),
];

impl Workload {
    /// Name of the timed op in the human-readable report.
    fn op_label(self) -> &'static str {
        match self {
            Workload::PingpongSmall => "small_rtt",
            Workload::PingpongLarge => "large_rtt",
            Workload::Objects => "obj_rtt",
            Workload::Cg => "cg_iter",
        }
    }

    fn run(self, plan: Plan) -> Seg {
        match self {
            Workload::PingpongSmall => {
                run_segments(plan, |_| {}, |p, c, s| pingpong::run(p, c, 4, s))
            }
            Workload::PingpongLarge => {
                run_segments(plan, |_| {}, |p, c, s| pingpong::run(p, c, 256 * 1024, s))
            }
            Workload::Objects => run_segments(plan, objects::define, objects::run),
            Workload::Cg => {
                let reference = cg::Reference::new(plan.seed);
                let mut seg = run_segments(plan, |_| {}, |p, c, s| cg::run(p, c, &reference, s));
                for &us in &reference.serial_us {
                    seg.sample("app.serial_solve", us);
                }
                seg
            }
        }
    }
}

struct Args {
    workload: (&'static str, Workload),
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|(n, _)| *n == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Row {
    name: String,
    value: f64,
    unit: &'static str,
    /// Sample count or other basis, for the human-readable line.
    basis: String,
}

fn row(name: impl Into<String>, value: f64, unit: &'static str, basis: impl Into<String>) -> Row {
    Row {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        basis: basis.into(),
    }
}

fn p50(seg: &Seg, name: &str) -> (f64, u64) {
    seg.samples
        .get(name)
        .and_then(summarize)
        .map_or((0.0, 0), |s| (s.p50, s.n))
}

/// The end-to-end metrics, and extra lines for the human report only.
fn end_to_end(w: Workload, seg: &Seg) -> (Vec<Row>, Vec<Row>) {
    let label = w.op_label();
    let op = seg.samples.get("op").filter(|d| d.count() > 0);
    let n = op.map_or(0, |d| d.count());
    let op_p50 = op.map_or(0.0, |d| d.quantile_us(0.5));
    let op_p90 = op.map_or(0.0, |d| d.quantile_us(0.9));
    let op_p99 = op.map_or(0.0, |d| d.quantile_us(0.99));
    let beyond = stats::beyond(n, 0.99);
    let p99_basis = if beyond >= stats::MIN_BEYOND {
        format!("n={n} beyond={beyond}")
    } else {
        format!(
            "n={n} beyond={beyond} (fewer than {} beyond: not a p99)",
            stats::MIN_BEYOND
        )
    };
    let setups = seg.setup_s.len();
    let rows = vec![
        row(
            "setup_s",
            if setups > 0 {
                median(&seg.setup_s)
            } else {
                0.0
            },
            "s",
            format!("median of {setups} set-ups"),
        ),
        row(
            "peak_rss_mb",
            if seg.peak_rss_mb.is_empty() {
                0.0
            } else {
                median(&seg.peak_rss_mb)
            },
            "MB",
            format!(
                "median of {} clusters' VmHWM, reset before each",
                seg.peak_rss_mb.len()
            ),
        ),
        row("op_p50_us", op_p50, "us", format!("{label}_p50_us n={n}")),
    ];
    let (bringup, _) = p50(seg, "bringup");
    let (warmup, _) = p50(seg, "warmup");
    let mut extra = vec![
        row(
            "setup.bringup_ms",
            bringup / 1e3,
            "ms",
            "median, run_cluster call to rank 0's body; the rest of setup_s is input construction",
        ),
        row(
            "setup.warmup_ms",
            warmup / 1e3,
            "ms",
            "median, warm-up round trips or solves; not part of setup_s",
        ),
        row(format!("{label}_p50_us"), op_p50, "us", format!("n={n}")),
        row(format!("{label}_p90_us"), op_p90, "us", format!("n={n}")),
        row(format!("{label}_p99_us"), op_p99, "us", p99_basis),
        row(
            "error_rate",
            ratio(seg.failed as f64, seg.attempted as f64),
            "ratio",
            format!("failed={} attempted={}", seg.failed, seg.attempted),
        ),
    ];
    if w == Workload::Cg {
        let (solve, n) = p50(seg, "solve");
        extra.push(row(
            "cg_solve_p50_ms",
            solve / 1e3,
            "ms",
            format!("n={n} tol={}", cg::TOL),
        ));
        let iters = seg.facts.get("cg.iterations").copied().unwrap_or(0.0);
        extra.push(row("cg.iterations", iters, "count", "per solve"));
    }
    (rows, extra)
}

/// The per-layer metrics, and extra lines for the human report only.
fn per_layer(w: Workload, seg: &Seg) -> (Vec<Row>, Vec<Row>) {
    let mut rows = Vec::new();
    let mut extra = Vec::new();
    let msg = seg.facts.get("msg_bytes").copied().unwrap_or(0.0);
    let mut ladder = Vec::new();
    for (rung, sample) in ladder::RUNGS {
        let (v, n) = p50(seg, sample);
        rows.push(row(
            format!("{rung}.rtt_p50_us"),
            v,
            "us",
            format!("n={n} msg={msg}B"),
        ));
        ladder.push((rung, v));
    }
    for (rung, own) in stats::ladder_self(&ladder) {
        let finding = if own < 0.0 {
            " (negative: a finding)"
        } else {
            ""
        };
        extra.push(row(
            format!("{rung}.self_us"),
            own,
            "us",
            format!("p50 minus the rung below{finding}"),
        ));
    }

    let win = &seg.window;
    let ops = seg.window_ops as f64;
    let c = |m: Metric| win.get(m) as f64;
    let per_op = |m: Metric| ratio(c(m), ops);
    let basis = format!("ops={}", seg.window_ops);
    let payload = seg
        .facts
        .get("payload_bytes_per_op")
        .copied()
        .unwrap_or(0.0);
    let wait = win.hist(Hist::WaitNanos);
    rows.extend([
        row(
            "mpc.frames_per_op",
            per_op(Metric::ChanFramesOut),
            "count",
            &basis,
        ),
        row(
            "mpc.wire_overhead_bytes_per_op",
            per_op(Metric::ChanBytesOut) - payload,
            "bytes",
            format!("{basis} payload={payload}B/op"),
        ),
        row(
            "mpc.match_attempts_per_op",
            per_op(Metric::MatchAttempts),
            "count",
            &basis,
        ),
        row(
            "mpc.unexpected_share",
            ratio(
                c(Metric::RecvsUnexpected),
                c(Metric::RecvsUnexpected) + c(Metric::RecvsPosted),
            ),
            "ratio",
            &basis,
        ),
        row(
            "mpc.rndv_share",
            ratio(
                c(Metric::SendsRndv),
                c(Metric::SendsRndv) + c(Metric::SendsEager),
            ),
            "ratio",
            &basis,
        ),
        row(
            "mpc.progress_polls_per_op",
            per_op(Metric::ProgressPolls),
            "count",
            &basis,
        ),
        row(
            "mpc.wait_p50_us",
            wait.p50() as f64 / 1e3,
            "us",
            format!("waits={}", wait.count()),
        ),
        row(
            "mpc.wait_p99_us",
            wait.p99() as f64 / 1e3,
            "us",
            format!("waits={}", wait.count()),
        ),
        row(
            "mpc.wait_park_share",
            stats::share_above(&wait, PARK_NS),
            "ratio",
            format!("waits={} above {PARK_NS} ns", wait.count()),
        ),
        row("core.pins_per_op", per_op(Metric::GcPins), "count", &basis),
        row(
            "core.pins_avoided_per_op",
            ratio(
                c(Metric::GcPinsAvoidedElder) + c(Metric::GcPinsAvoidedFastBlocking),
                ops,
            ),
            "count",
            &basis,
        ),
        row(
            "core.cond_pins_per_op",
            per_op(Metric::GcCondPinsRegistered),
            "count",
            &basis,
        ),
    ]);
    for (name, sample) in [
        ("core.serialize_p50_us", "core.serialize"),
        ("core.deserialize_p50_us", "core.deserialize"),
    ] {
        let (v, n) = p50(seg, sample);
        rows.push(row(name, v, "us", format!("n={n} of the message object")));
    }
    rows.extend([
        row(
            "core.ser_bytes_per_op",
            per_op(Metric::SerBytes),
            "bytes",
            &basis,
        ),
        row(
            "core.visited_probes_per_object",
            ratio(c(Metric::SerVisitedProbes), c(Metric::SerObjects)),
            "count",
            format!("objects={}", c(Metric::SerObjects)),
        ),
        row(
            "core.pool_hit_share",
            ratio(c(Metric::PoolHits), c(Metric::PoolGets)),
            "ratio",
            format!("gets={}", c(Metric::PoolGets)),
        ),
        row(
            "runtime.gc_minor_per_kop",
            1e3 * per_op(Metric::GcMinorCollections),
            "count",
            &basis,
        ),
        row(
            "runtime.gc_full_per_kop",
            1e3 * per_op(Metric::GcFullCollections),
            "count",
            &basis,
        ),
        row(
            "runtime.promoted_bytes_per_op",
            per_op(Metric::GcBytesPromoted),
            "bytes",
            &basis,
        ),
        row(
            "runtime.gc_time_share",
            ratio(c(Metric::ProfGcNanos), 2.0 * seg.window_ns as f64),
            "ratio",
            "prof_gc_nanos over both ranks' wall time",
        ),
        row(
            "runtime.safepoint_stalls_per_kop",
            1e3 * per_op(Metric::SafepointStalls),
            "count",
            &basis,
        ),
    ]);
    let stall = win.hist(Hist::SafepointStallNanos);
    extra.push(row(
        "runtime.safepoint_stall_p99_us",
        stall.p99() as f64 / 1e3,
        "us",
        format!("stalls={}", stall.count()),
    ));

    let spans = &seg.spans;
    for layer in ["app", "api", "core"] {
        rows.push(row(
            format!("{layer}.self_share"),
            spans.self_share(layer),
            "ratio",
            "self time over traced op time",
        ));
    }
    rows.push(row(
        "trace.span_coverage",
        spans.coverage(),
        "ratio",
        "child self time over op time",
    ));
    let (untraced, n0) = p50(seg, "op");
    let (traced, n1) = p50(seg, "op_traced");
    rows.push(row(
        "trace.overhead_share",
        ratio(traced, untraced) - 1.0,
        "ratio",
        format!("traced p50 {traced:.3} us (n={n1}) vs untraced {untraced:.3} us (n={n0})"),
    ));
    let iters = seg.facts.get("cg.iterations").copied().unwrap_or(0.0);
    rows.push(row("cg.iterations", iters, "count", "per solve"));
    for (name, s) in &spans.by_name {
        if let Some(sum) = summarize(&s.durs) {
            extra.push(row(
                format!("{}.{name}_p50_us", s.layer),
                sum.p50,
                "us",
                format!("n={}", sum.n),
            ));
        }
    }
    if w == Workload::Objects {
        let (v, n) = p50(seg, "ladder.mpc");
        extra.push(row(
            "mpc.obj_transport_rtt_p50_us",
            v,
            "us",
            format!("n={n}"),
        ));
    }
    if w == Workload::Cg {
        extra.push(row(
            "cg.comm_share",
            spans.self_share("api"),
            "ratio",
            "api self time over iteration time",
        ));
        let (v, n) = p50(seg, "app.serial_solve");
        extra.push(row(
            "app.serial_solve_p50_ms",
            v / 1e3,
            "ms",
            format!("n={n}"),
        ));
    }
    (rows, extra)
}

fn json(correct: bool, seg: &Seg, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                r.name, r.value, r.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        seg.attempted.max(1),
        seg.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("motor-perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.0).join("|")
            );
            std::process::exit(2);
        }
    };
    let set = sys::forbidden_env_set();
    if !set.is_empty() {
        eprintln!(
            "motor-perfbench: refusing to run with {} set: it changes the measured program",
            set.join(", ")
        );
        std::process::exit(2);
    }
    let (wname, w) = args.workload;
    let segments = (args.seconds / SEGMENT_SECONDS).ceil() as usize;
    let plan = Plan {
        seed: args.seed,
        segments,
        segment: Duration::from_secs_f64(args.seconds / segments as f64),
        traced: args.trace,
    };
    // A rank that fails leaves its peer blocked in a receive that will
    // never match; end the run as failed instead of hanging.
    let limit = (3.0 * args.seconds + 30.0).min(170.0);
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs_f64(limit));
        println!("error: the run did not finish within {limit} s");
        println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
        std::process::exit(1);
    });
    let seg = w.run(plan);
    let stamp = format!(
        "workload={wname} seed={} seconds={} trace={} segments={segments} {} progress=off eager_threshold={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::host_stamp(),
        motor_mpc::DeviceConfig::default().eager_threshold
    );
    let correct = seg.failed == 0 && seg.attempted > 0;
    let (rows, extra) = if args.trace {
        per_layer(w, &seg)
    } else {
        end_to_end(w, &seg)
    };
    println!("# motor-perfbench {stamp}");
    for r in rows.iter().chain(&extra) {
        println!("{} = {} {} ({})", r.name, r.value, r.unit, r.basis);
    }
    let fmt = |v: Vec<f64>| {
        v.iter()
            .map(|x| format!("{x:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "segments p50_us: {}",
        fmt(seg.per_segment.iter().map(|s| s.0).collect())
    );
    println!(
        "segments p99_us: {}",
        fmt(seg.per_segment.iter().map(|s| s.1).collect())
    );
    for e in &seg.errors {
        println!("error: {e}");
    }
    if args.trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("spans-{wname}-seed{}.tsv", args.seed));
        match std::fs::create_dir_all(dir).and_then(|_| seg.spans.write(&path, &stamp)) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => println!("spans not written: {e}"),
        }
    }
    println!("{}", json(correct, &seg, &rows));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(w: Workload, trace: bool) -> Seg {
        let seg = w.run(Plan {
            seed: 5,
            segments: 2,
            segment: Duration::from_millis(20),
            traced: trace,
        });
        assert!(seg.attempted > 0);
        assert_eq!(seg.failed, 0, "errors: {:?}", seg.errors);
        assert_eq!(ratio(seg.failed as f64, seg.attempted as f64), 0.0);
        seg
    }

    #[test]
    fn every_workload_runs_clean_at_tiny_size() {
        for (_, w) in WORKLOADS {
            let seg = smoke(w, false);
            let (rows, _) = end_to_end(w, &seg);
            assert!(rows.iter().all(|r| r.value > 0.0), "{w:?}: zero metric");
        }
    }

    #[test]
    fn traced_runs_report_every_layer_metric() {
        for (_, w) in WORKLOADS {
            let seg = smoke(w, true);
            let (rows, _) = per_layer(w, &seg);
            for rung in ladder::RUNGS {
                let r = rows
                    .iter()
                    .find(|r| r.name == format!("{}.rtt_p50_us", rung.0))
                    .unwrap();
                assert!(r.value > 0.0, "{w:?}: {} is zero", r.name);
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let a = |s: &str| parse(s.split_whitespace().map(String::from));
        assert!(a("--workload cg --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(a("--workload nope --seed 3 --seconds 2 --trace 1").is_err());
        assert!(a("--workload cg --seed 3 --seconds 0 --trace 1").is_err());
        assert!(a("--workload cg --seed 3 --seconds 2 --trace 2").is_err());
        assert!(a("--workload cg --seconds 2 --trace 0").is_err());
    }
}
