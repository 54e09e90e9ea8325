//! The layer ladder: the same message, on the same two threads, through
//! one layer's public entry point after another, plus the serializer timed
//! on the workload's message object.

use std::time::Instant;

use motor_core::cluster::MotorProc;
use motor_core::Serializer;
use motor_mpc::packet::{ENVELOPE_LEN, FRAME_HEADER};
use motor_runtime::Handle;

use crate::bench::{agree, us_since, warm_estimate_s, Ctx, Seg, TRACED_RUNG, TRACED_SERIAL};
use crate::exchange::{
    drive, interp_module, ApiEx, CoreEx, InterpEx, Managed, MpcEx, PalEx, Phase,
};
use crate::sys::Rng;

/// Rungs from the bottom up, as sample names.
pub const RUNGS: [(&str, &str); 5] = [
    ("pal", "ladder.pal"),
    ("mpc", "ladder.mpc"),
    ("core", "ladder.core"),
    ("api", "ladder.api"),
    ("interp", "ladder.interp"),
];

/// Bytes the device writes for one `len`-byte message in the frame that
/// carries its data: an eager frame holds the envelope, a rendezvous data
/// frame an 8-byte request id.
pub fn wire_len(len: usize, eager_threshold: usize) -> usize {
    if len <= eager_threshold {
        FRAME_HEADER + ENVELOPE_LEN + len
    } else {
        FRAME_HEADER + 8 + len
    }
}

/// Round trips that warm up and calibrate one phase.
pub fn warm_for(len: usize) -> usize {
    if len > 64 * 1024 {
        50
    } else {
        500
    }
}

/// Climb the ladder with a seeded `len`-byte message.
pub fn run(proc: &MotorProc, ctx: &Ctx, len: usize, seg: &mut Seg) -> Result<(), String> {
    let msg = Rng::derive(ctx.plan.seed, 0x1add).bytes(len);
    let warm = warm_for(len);
    let phase = |name| {
        [Phase {
            name,
            share: TRACED_RUNG,
            traced: false,
            window: false,
        }]
    };
    let eager = proc.comm().device().eager_threshold();
    let wire = Rng::derive(ctx.plan.seed, 0x1add).bytes(wire_len(len, eager));
    let link = ctx
        .take_link(proc.rank())
        .ok_or("no shm link for the pal rung")?;
    let mut pal = PalEx {
        link,
        back: vec![0; wire.len()],
        wire,
    };
    drive(proc, ctx, &mut pal, warm, &phase(RUNGS[0].1), seg)?;
    let mut mpc = MpcEx {
        comm: proc.comm().clone(),
        back: vec![0; len],
        msg: msg.clone(),
    };
    drive(proc, ctx, &mut mpc, warm, &phase(RUNGS[1].1), seg)?;
    let mut core = CoreEx {
        mp: proc.mp(),
        bufs: Managed::new(proc.thread(), msg.clone()),
    };
    drive(proc, ctx, &mut core, warm, &phase(RUNGS[2].1), seg)?;
    let mut api = ApiEx::new(proc, msg.clone());
    drive(proc, ctx, &mut api, warm, &phase(RUNGS[3].1), seg)?;
    let module = {
        let reg = proc.vm().registry();
        motor_analyze::load(interp_module(), &reg).map_err(|e| format!("IL load: {e}"))?
    };
    let host = proc.intrinsics();
    let mut interp = InterpEx::new(proc.thread(), &module, &host, msg);
    drive(proc, ctx, &mut interp, warm, &phase(RUNGS[4].1), seg)
}

/// Rank 0 times `Serializer::serialize` and `deserialize` of `obj` (the
/// workload's message object) while rank 1 waits; the round trip through
/// the serializer must reproduce the same bytes.
pub fn serializer(
    proc: &MotorProc,
    ctx: &Ctx,
    obj: Option<Handle>,
    seg: &mut Seg,
) -> Result<(), String> {
    if let Some(obj) = obj {
        let t = proc.thread();
        let s = Serializer::new(t);
        let once = |seg: &mut Seg, record: bool| -> Result<(f64, f64), String> {
            seg.attempted += 1;
            let t0 = Instant::now();
            let (bytes, _) = s.serialize(obj).map_err(|e| format!("serialize: {e}"))?;
            let ser = us_since(t0);
            let t1 = Instant::now();
            let copy = s
                .deserialize(&bytes)
                .map_err(|e| format!("deserialize: {e}"))?;
            let deser = us_since(t1);
            if record {
                seg.sample("core.serialize", ser);
                seg.sample("core.deserialize", deser);
            } else {
                let (again, _) = s.serialize(copy).map_err(|e| format!("serialize: {e}"))?;
                if again != bytes {
                    seg.fail("deserialized graph serializes differently");
                }
            }
            t.release(copy);
            Ok((ser, deser))
        };
        let mut warm = Vec::new();
        for _ in 0..10 {
            let (a, b) = once(seg, false)?;
            warm.push(a + b);
        }
        let n = ctx.plan.count(TRACED_SERIAL, warm_estimate_s(&warm));
        for _ in 0..n {
            once(seg, true)?;
        }
    }
    // Rank 1 waits here until rank 0 is done.
    agree(proc, &[0]).map(drop)
}
