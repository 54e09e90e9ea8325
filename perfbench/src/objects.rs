//! Figure 10's Motor series: `Oomp::osend`/`orecv` of the paper's
//! `LinkedArray` list, 1024 objects carrying 4096 payload bytes.

use motor_core::cluster::MotorProc;
use motor_core::{Oomp, Serializer};
use motor_runtime::{ClassId, ElemKind, Handle, MotorThread, TypeRegistry};

use crate::bench::{agree, main_phases, Ctx, Seg};
use crate::exchange::{drive, Exchange, TAG};
use crate::ladder;
use crate::sys::Rng;
use crate::trace::Tracer;

/// Objects per list: one node plus its data array per element.
pub const TOTAL_OBJECTS: usize = 1024;
/// Payload bytes spread evenly over the node arrays.
pub const PAYLOAD_BYTES: usize = 4096;
const NODES: usize = TOTAL_OBJECTS / 2;
const INTS_PER_NODE: usize = PAYLOAD_BYTES / NODES / 4;

/// The paper's `LinkedArray` (Figure 5): a transportable `i32[]`, a
/// transportable `next` and a non-transportable `next2`.
pub fn define(reg: &mut TypeRegistry) {
    let arr = reg.prim_array(ElemKind::I32);
    let next = ClassId(reg.len() as u32);
    reg.define_class("LinkedArray")
        .prim("tag", ElemKind::I32)
        .transportable("array", arr)
        .transportable("next", next)
        .reference("next2", next)
        .build();
}

#[derive(Clone, Copy)]
struct Fields {
    node: ClassId,
    tag: usize,
    array: usize,
    next: usize,
}

impl Fields {
    fn of(t: &MotorThread) -> Fields {
        let node = t
            .vm()
            .registry()
            .by_name("LinkedArray")
            .expect("LinkedArray defined");
        Fields {
            node,
            tag: t.field_index(node, "tag"),
            array: t.field_index(node, "array"),
            next: t.field_index(node, "next"),
        }
    }
}

/// Order-sensitive checksum of one node's array.
fn checksum(ints: &[i32]) -> i64 {
    ints.iter()
        .enumerate()
        .map(|(j, &v)| (j as i64 + 1) * v as i64)
        .sum()
}

/// Build the list from seeded array contents; returns the head.
fn build(t: &MotorThread, f: Fields, data: &[Vec<i32>]) -> Handle {
    let mut head = t.null_handle();
    for (i, ints) in data.iter().enumerate().rev() {
        let n = t.alloc_instance(f.node);
        t.set_prim::<i32>(n, f.tag, i as i32);
        let a = t.alloc_prim_array(ElemKind::I32, ints.len());
        t.prim_write(a, 0, ints);
        t.set_ref(n, f.array, a);
        t.set_ref(n, f.next, head);
        t.release(a);
        t.release(head);
        head = n;
    }
    head
}

/// The list matches `expect`: same length, node `i` tagged `i`, and each
/// array's checksum.
fn verify(t: &MotorThread, f: Fields, head: Handle, expect: &[i64]) -> bool {
    let mut cur = t.clone_handle(head);
    let mut i = 0;
    let mut ok = true;
    let mut ints = vec![0i32; INTS_PER_NODE];
    while !t.is_null(cur) {
        if i == expect.len() {
            ok = false;
            break;
        }
        let a = t.get_ref(cur, f.array);
        ok &= t.get_prim::<i32>(cur, f.tag) == i as i32 && t.array_len(a) == INTS_PER_NODE;
        if ok {
            t.prim_read(a, 0, &mut ints);
            ok &= checksum(&ints) == expect[i];
        }
        t.release(a);
        let next = t.get_ref(cur, f.next);
        t.release(cur);
        cur = next;
        i += 1;
    }
    t.release(cur);
    ok && i == expect.len()
}

struct ObjEx<'t> {
    oomp: Oomp<'t>,
    thread: &'t MotorThread,
    fields: Fields,
    head: Handle,
    got: Option<Handle>,
    expect: Vec<i64>,
}

impl Exchange for ObjEx<'_> {
    fn ping(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let (o, head) = (&self.oomp, self.head);
        tr.span("core", "oomp.osend", || o.osend(head, 1, TAG))
            .map_err(|e| format!("osend: {e}"))?;
        let (got, _) = tr
            .span("core", "oomp.orecv", || o.orecv(1, TAG))
            .map_err(|e| format!("orecv: {e}"))?;
        self.got = Some(got);
        Ok(())
    }
    fn pong(&mut self) -> Result<(), String> {
        let (h, _) = self.oomp.orecv(0, TAG).map_err(|e| format!("orecv: {e}"))?;
        let sent = self
            .oomp
            .osend(h, 0, TAG)
            .map_err(|e| format!("osend: {e}"));
        self.thread.release(h);
        sent
    }
    fn len(&self) -> usize {
        0
    }
    fn poison(&mut self, _: &[usize]) {}
    fn check(&mut self, _: &[usize]) -> bool {
        let Some(got) = self.got.take() else {
            return false;
        };
        let ok = verify(self.thread, self.fields, got, &self.expect);
        self.thread.release(got);
        ok
    }
    fn check_all(&mut self) -> bool {
        true
    }
}

/// Rank body of the `objects` workload.
pub fn run(proc: &MotorProc, ctx: &Ctx, seg: &mut Seg) -> Result<(), String> {
    let t = proc.thread();
    let fields = Fields::of(t);
    let mut rng = Rng::derive(ctx.plan.seed, 0x0b1e);
    let data: Vec<Vec<i32>> = (0..NODES)
        .map(|_| (0..INTS_PER_NODE).map(|_| rng.next_u64() as i32).collect())
        .collect();
    let rank0 = proc.rank() == 0;
    let head = if rank0 {
        build(t, fields, &data)
    } else {
        t.null_handle()
    };
    let mut ex = ObjEx {
        oomp: proc.oomp(),
        thread: t,
        fields,
        head,
        got: None,
        expect: data.iter().map(|d| checksum(d)).collect(),
    };
    drive(proc, ctx, &mut ex, 40, &main_phases(ctx.plan.traced), seg)?;
    // The message length is bookkeeping for the report and the ladder, so
    // it is taken after the timed loop rather than during set-up.
    let ser_len = if rank0 {
        let (bytes, _) = Serializer::new(t)
            .serialize(head)
            .map_err(|e| format!("serialize: {e}"))?;
        bytes.len() as u64
    } else {
        0
    };
    let ser_len = agree(proc, &[ser_len])?[0] as usize;
    seg.facts.insert("msg_bytes", ser_len as f64);
    seg.facts
        .insert("payload_bytes_per_op", 2.0 * ser_len as f64);
    if ctx.plan.traced {
        ladder::run(proc, ctx, ser_len, seg)?;
        ladder::serializer(proc, ctx, rank0.then_some(head), seg)?;
    }
    t.release(head);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_shape_matches_the_paper() {
        assert_eq!(NODES * 2, TOTAL_OBJECTS);
        assert_eq!(NODES * INTS_PER_NODE * 4, PAYLOAD_BYTES);
    }

    #[test]
    fn checksum_is_order_sensitive() {
        assert_ne!(checksum(&[1, 2]), checksum(&[2, 1]));
    }
}
