//! Figure 9's Motor series: `Mp::send`/`Mp::recv` of a managed `u8[]`.

use motor_core::cluster::MotorProc;

use crate::bench::{main_phases, Ctx, Seg};
use crate::exchange::{drive, CoreEx, Managed};
use crate::ladder;
use crate::sys::Rng;

/// Rank body of the ping-pong workloads with a `size`-byte payload.
pub fn run(proc: &MotorProc, ctx: &Ctx, size: usize, seg: &mut Seg) -> Result<(), String> {
    let payload = Rng::derive(ctx.plan.seed, 0x9a10).bytes(size);
    let mut ex = CoreEx {
        mp: proc.mp(),
        bufs: Managed::new(proc.thread(), payload),
    };
    drive(
        proc,
        ctx,
        &mut ex,
        2 * ladder::warm_for(size),
        &main_phases(ctx.plan.traced),
        seg,
    )?;
    seg.facts.insert("msg_bytes", size as f64);
    seg.facts.insert("payload_bytes_per_op", 2.0 * size as f64);
    if ctx.plan.traced {
        ladder::run(proc, ctx, size, seg)?;
        let obj = (proc.rank() == 0).then_some(ex.bufs.out);
        ladder::serializer(proc, ctx, obj, seg)?;
    }
    Ok(())
}
