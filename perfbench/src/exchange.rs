//! Closed-loop round trips between the two ranks, one implementation per
//! layer entry point, and the loop that times them.
//!
//! Rank 0 pings and times; rank 1 echoes. Before every ping rank 0
//! poisons a few seeded positions of its receive buffer, and after it
//! checks that the echo restored them; each phase ends with a full
//! compare. Checks happen outside the timed interval.

use std::time::Instant;

use motor_api::{ArrayBuf, Communicator};
use motor_core::cluster::MotorProc;
use motor_core::{Mp, MpIntrinsics};
use motor_interp::{FCallId, FnBuilder, Interp, Module, Op, TyDesc, Value};
use motor_mpc::Comm;
use motor_pal::link::{read_exact, write_all, ShmLink};
use motor_runtime::{ElemKind, Handle, MotorThread};

use crate::bench::{agree, us_since, warm_estimate_s, Ctx, Seg, Window};
use crate::sys::Rng;
use crate::trace::Tracer;

/// Tag of every timed message.
pub const TAG: i32 = 9;

/// Positions checked on every echo, besides the first and last byte.
const CHECKED: usize = 8;

/// One layer's round trip.
pub trait Exchange {
    /// Rank 0: send the message and receive the echo (the timed part).
    fn ping(&mut self, tr: &mut Tracer) -> Result<(), String>;
    /// Rank 1: receive the message and send it back.
    fn pong(&mut self) -> Result<(), String>;
    /// Length of the message in bytes.
    fn len(&self) -> usize;
    /// Rank 0, untimed: overwrite the receive buffer at `at`.
    fn poison(&mut self, at: &[usize]);
    /// Rank 0, untimed: the echo restored the message at `at`.
    fn check(&mut self, at: &[usize]) -> bool;
    /// Rank 0, untimed: the whole receive buffer equals the message.
    fn check_all(&mut self) -> bool;
}

/// One timed phase of a [`drive`] call.
pub struct Phase {
    /// Sample name the round-trip times go to.
    pub name: &'static str,
    /// Share of the segment the phase fills.
    pub share: f64,
    /// Record spans around the layer calls.
    pub traced: bool,
    /// Take the metrics window at this phase; a `drive` call with such a
    /// phase is the workload's main loop, whose warm-up ends set-up.
    pub window: bool,
}

fn positions(rng: &mut Rng, len: usize) -> Vec<usize> {
    if len <= CHECKED + 2 {
        return (0..len).collect();
    }
    let mut at = vec![0, len - 1];
    at.extend((0..CHECKED).map(|_| rng.below(len)));
    at
}

fn round_trip(
    ex: &mut dyn Exchange,
    tr: &mut Tracer,
    rng: &mut Rng,
    seg: &mut Seg,
) -> Result<f64, String> {
    let at = positions(rng, ex.len());
    ex.poison(&at);
    seg.attempted += 1;
    tr.next_op();
    tr.enter("op", "rtt");
    let t0 = Instant::now();
    let res = ex.ping(tr);
    let us = us_since(t0);
    tr.exit();
    res?;
    if !ex.check(&at) {
        seg.fail("echo differs from the message");
    }
    Ok(us)
}

/// Warm up with `warm` round trips, agree the op count of each phase from
/// their mean, then run the phases.
pub fn drive(
    proc: &MotorProc,
    ctx: &Ctx,
    ex: &mut dyn Exchange,
    warm: usize,
    phases: &[Phase],
    seg: &mut Seg,
) -> Result<(), String> {
    let rank0 = proc.rank() == 0;
    let mut rng = Rng::derive(ctx.plan.seed, 0x0ec0);
    let mut off = Tracer::new(false, proc.rank(), ctx.called);
    let main = phases.iter().any(|p| p.window);
    if main && rank0 {
        seg.setup_s.push(ctx.called.elapsed().as_secs_f64());
    }
    let warm_start = Instant::now();
    let mut warm_us = Vec::with_capacity(warm);
    for _ in 0..warm {
        if rank0 {
            warm_us.push(round_trip(ex, &mut off, &mut rng, seg)?);
        } else {
            ex.pong()?;
        }
    }
    let est = if rank0 {
        warm_estimate_s(&warm_us)
    } else {
        0.0
    };
    let wanted: Vec<u64> = phases
        .iter()
        .map(|p| ctx.plan.count(p.share, est))
        .collect();
    let counts = agree(proc, &wanted)?;
    for (p, &n) in phases.iter().zip(&counts) {
        let mut tr = Tracer::new(p.traced, proc.rank(), ctx.called);
        if p.window && rank0 {
            seg.sample("warmup", us_since(warm_start));
        }
        let win = p.window.then(|| Window::open(proc));
        for _ in 0..n {
            if rank0 {
                let us = round_trip(ex, &mut tr, &mut rng, seg)?;
                seg.sample(p.name, us);
            } else {
                ex.pong()?;
            }
        }
        if let Some(w) = win {
            w.close(proc, n, seg);
        }
        seg.spans.merge(tr.take());
        if rank0 && !ex.check_all() {
            seg.fail(format!("{}: final buffer differs from the message", p.name));
        }
    }
    Ok(())
}

/// Raw shm link: the same wire bytes, no framing, matching or waiting.
pub struct PalEx {
    pub link: ShmLink,
    pub wire: Vec<u8>,
    pub back: Vec<u8>,
}

impl Exchange for PalEx {
    fn ping(&mut self, _: &mut Tracer) -> Result<(), String> {
        write_all(&mut self.link, &self.wire).map_err(|e| format!("pal write: {e}"))?;
        read_exact(&mut self.link, &mut self.back).map_err(|e| format!("pal read: {e}"))
    }
    fn pong(&mut self) -> Result<(), String> {
        read_exact(&mut self.link, &mut self.back).map_err(|e| format!("pal read: {e}"))?;
        write_all(&mut self.link, &self.back).map_err(|e| format!("pal write: {e}"))
    }
    fn len(&self) -> usize {
        self.wire.len()
    }
    fn poison(&mut self, at: &[usize]) {
        for &i in at {
            self.back[i] = !self.wire[i];
        }
    }
    fn check(&mut self, at: &[usize]) -> bool {
        at.iter().all(|&i| self.back[i] == self.wire[i])
    }
    fn check_all(&mut self) -> bool {
        self.back == self.wire
    }
}

/// `Comm::send_bytes`/`recv_bytes`: the native message-passing core.
pub struct MpcEx {
    pub comm: Comm,
    pub msg: Vec<u8>,
    pub back: Vec<u8>,
}

impl Exchange for MpcEx {
    fn ping(&mut self, _: &mut Tracer) -> Result<(), String> {
        self.comm
            .send_bytes(&self.msg, 1, TAG)
            .map_err(|e| format!("mpc send: {e}"))?;
        self.comm
            .recv_bytes(&mut self.back, 1, TAG)
            .map(drop)
            .map_err(|e| format!("mpc recv: {e}"))
    }
    fn pong(&mut self) -> Result<(), String> {
        self.comm
            .recv_bytes(&mut self.back, 0, TAG)
            .map_err(|e| format!("mpc recv: {e}"))?;
        self.comm
            .send_bytes(&self.back, 0, TAG)
            .map_err(|e| format!("mpc send: {e}"))
    }
    fn len(&self) -> usize {
        self.msg.len()
    }
    fn poison(&mut self, at: &[usize]) {
        for &i in at {
            self.back[i] = !self.msg[i];
        }
    }
    fn check(&mut self, at: &[usize]) -> bool {
        at.iter().all(|&i| self.back[i] == self.msg[i])
    }
    fn check_all(&mut self) -> bool {
        self.back == self.msg
    }
}

/// A managed `u8[]` message and receive buffer, shared by the managed
/// rungs.
pub struct Managed<'t> {
    pub thread: &'t MotorThread,
    pub msg: Vec<u8>,
    pub out: Handle,
    pub back: Handle,
}

impl<'t> Managed<'t> {
    pub fn new(thread: &'t MotorThread, msg: Vec<u8>) -> Managed<'t> {
        let out = thread.alloc_prim_array(ElemKind::U8, msg.len());
        thread.prim_write(out, 0, &msg);
        let back = thread.alloc_prim_array(ElemKind::U8, msg.len());
        Managed {
            thread,
            msg,
            out,
            back,
        }
    }

    fn poison(&self, at: &[usize]) {
        for &i in at {
            self.thread.prim_write(self.back, i, &[!self.msg[i]]);
        }
    }

    fn check(&self, at: &[usize]) -> bool {
        at.iter().all(|&i| {
            let mut b = [0u8];
            self.thread.prim_read(self.back, i, &mut b);
            b[0] == self.msg[i]
        })
    }

    fn check_all(&self) -> bool {
        let mut got = vec![0u8; self.msg.len()];
        self.thread.prim_read(self.back, 0, &mut got);
        got == self.msg
    }
}

impl Drop for Managed<'_> {
    fn drop(&mut self) {
        self.thread.release(self.out);
        self.thread.release(self.back);
    }
}

/// `Mp::send`/`Mp::recv` on managed arrays: FCall entry and the pinning
/// decision over the core.
pub struct CoreEx<'t> {
    pub mp: Mp<'t>,
    pub bufs: Managed<'t>,
}

impl Exchange for CoreEx<'_> {
    fn ping(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let (mp, b) = (&self.mp, &self.bufs);
        tr.span("core", "mp.send", || mp.send(b.out, 1, TAG))
            .map_err(|e| format!("Mp::send: {e}"))?;
        tr.span("core", "mp.recv", || mp.recv(b.back, 1, TAG))
            .map(drop)
            .map_err(|e| format!("Mp::recv: {e}"))
    }
    fn pong(&mut self) -> Result<(), String> {
        let b = &self.bufs;
        self.mp
            .recv(b.back, 0, TAG)
            .map_err(|e| format!("Mp::recv: {e}"))?;
        self.mp
            .send(b.back, 0, TAG)
            .map_err(|e| format!("Mp::send: {e}"))
    }
    fn len(&self) -> usize {
        self.bufs.msg.len()
    }
    fn poison(&mut self, at: &[usize]) {
        self.bufs.poison(at)
    }
    fn check(&mut self, at: &[usize]) -> bool {
        self.bufs.check(at)
    }
    fn check_all(&mut self) -> bool {
        self.bufs.check_all()
    }
}

/// `Communicator::send_array`/`recv_array`: the typed Rust front-end.
pub struct ApiEx<'t> {
    pub comm: Communicator<'t>,
    pub msg: Vec<u8>,
    pub out: ArrayBuf<'t, u8>,
    pub back: ArrayBuf<'t, u8>,
}

impl<'t> ApiEx<'t> {
    pub fn new(proc: &'t MotorProc, msg: Vec<u8>) -> ApiEx<'t> {
        let comm = Communicator::bind(proc.mp());
        let out = comm.array_from(&msg);
        let back = comm.alloc_array(msg.len());
        ApiEx {
            comm,
            msg,
            out,
            back,
        }
    }
}

impl Exchange for ApiEx<'_> {
    fn ping(&mut self, _: &mut Tracer) -> Result<(), String> {
        self.comm
            .send_array(&self.out, 1, TAG)
            .map_err(|e| format!("send_array: {e}"))?;
        self.comm
            .recv_array(&self.back, 1, TAG)
            .map(drop)
            .map_err(|e| format!("recv_array: {e}"))
    }
    fn pong(&mut self) -> Result<(), String> {
        self.comm
            .recv_array(&self.back, 0, TAG)
            .map_err(|e| format!("recv_array: {e}"))?;
        self.comm
            .send_array(&self.back, 0, TAG)
            .map_err(|e| format!("send_array: {e}"))
    }
    fn len(&self) -> usize {
        self.msg.len()
    }
    fn poison(&mut self, at: &[usize]) {
        for &i in at {
            self.back.write(i, &[!self.msg[i]]);
        }
    }
    fn check(&mut self, at: &[usize]) -> bool {
        at.iter().all(|&i| {
            let mut b = [0u8];
            self.back.read(i, &mut b);
            b[0] == self.msg[i]
        })
    }
    fn check_all(&mut self) -> bool {
        self.back.to_vec() == self.msg
    }
}

/// IL for the interpreted rung: `ping(out, back, peer)` does FCall
/// `MpSend` then `MpRecv`; `pong(buf, peer)` the reverse.
pub fn interp_module() -> Module {
    let arr = TyDesc::Arr(ElemKind::U8);
    let mut ping = FnBuilder::new("ping", 3, 3, false);
    ping.params(&[arr, arr, TyDesc::I64]);
    ping.op(Op::Load(0))
        .op(Op::Load(2))
        .op(Op::PushI(TAG as i64))
        .op(Op::FCall(FCallId::MpSend))
        .op(Op::Load(1))
        .op(Op::Load(2))
        .op(Op::PushI(TAG as i64))
        .op(Op::FCall(FCallId::MpRecv))
        .op(Op::Ret);
    let mut pong = FnBuilder::new("pong", 2, 2, false);
    pong.params(&[arr, TyDesc::I64]);
    pong.op(Op::Load(0))
        .op(Op::Load(1))
        .op(Op::PushI(TAG as i64))
        .op(Op::FCall(FCallId::MpRecv))
        .op(Op::Load(0))
        .op(Op::Load(1))
        .op(Op::PushI(TAG as i64))
        .op(Op::FCall(FCallId::MpSend))
        .op(Op::Ret);
    let mut m = Module::new();
    m.add(ping.build());
    m.add(pong.build());
    m
}

/// `Interp::call` of [`interp_module`] through `proc.intrinsics()`.
pub struct InterpEx<'a> {
    pub interp: Interp<'a, 'a>,
    pub bufs: Managed<'a>,
}

impl<'a> InterpEx<'a> {
    pub fn new(
        thread: &'a MotorThread,
        module: &'a motor_interp::VerifiedModule,
        host: &'a MpIntrinsics<'a>,
        msg: Vec<u8>,
    ) -> InterpEx<'a> {
        InterpEx {
            interp: Interp::new(thread, module).with_host(host),
            bufs: Managed::new(thread, msg),
        }
    }
}

impl Exchange for InterpEx<'_> {
    fn ping(&mut self, _: &mut Tracer) -> Result<(), String> {
        let args = [
            Value::R(self.bufs.out),
            Value::R(self.bufs.back),
            Value::I(1),
        ];
        self.interp
            .call(0, &args)
            .map(drop)
            .map_err(|e| format!("interp ping: {e}"))
    }
    fn pong(&mut self) -> Result<(), String> {
        let args = [Value::R(self.bufs.back), Value::I(0)];
        self.interp
            .call(1, &args)
            .map(drop)
            .map_err(|e| format!("interp pong: {e}"))
    }
    fn len(&self) -> usize {
        self.bufs.msg.len()
    }
    fn poison(&mut self, at: &[usize]) {
        self.bufs.poison(at)
    }
    fn check(&mut self, at: &[usize]) -> bool {
        self.bufs.check(at)
    }
    fn check_all(&mut self) -> bool {
        self.bufs.check_all()
    }
}
