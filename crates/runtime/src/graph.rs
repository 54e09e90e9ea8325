//! Whole-graph allocation — the deserializer's path into the heap.
//!
//! A received object graph is known in full before any of it exists, so
//! [`MotorThread::alloc_graph`](crate::MotorThread::alloc_graph) reserves
//! its exact byte total with one heap call, collecting first when the
//! young generation lacks room (none of the new graph is live yet, so that
//! collection promotes none of it). A graph larger than the large-object
//! threshold goes to the elder generation in one piece. A [`GraphBuilder`]
//! then carves the objects out of the reservation in order, writes their
//! contents and patches references by address, all under one hold of the
//! VM state lock; only the root gets a handle. Every object of the graph
//! lives in one generation, so no reference needs the write barrier.

use std::fmt;

use crate::heap::{Heap, Reservation};
use crate::layout::{self, obj_flags, ObjHeader};
use crate::object::ObjectRef;
use crate::types::{ClassId, FieldType, MethodTable, TypeKind, TypeRegistry};

/// The `n`-th object carved by a [`GraphBuilder`] (allocation order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphRef(pub u32);

/// A request the builder refused; nothing outside the reservation was
/// touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphError(&'static str);

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for GraphError {}

impl From<&'static str> for GraphError {
    fn from(msg: &'static str) -> GraphError {
        GraphError(msg)
    }
}

/// Carves objects out of one reservation. Holds the heap exclusively; on
/// drop it hands the unused tail of the reservation back, so the heap stays
/// parseable whether the build finished, failed or unwound.
pub struct GraphBuilder<'a> {
    heap: &'a mut Heap,
    reg: &'a TypeRegistry,
    res: Reservation,
    /// Next free byte of the reservation.
    next: usize,
    /// Addresses of the carved objects, in allocation order.
    objects: Vec<usize>,
}

impl<'a> GraphBuilder<'a> {
    pub(crate) fn new(
        heap: &'a mut Heap,
        reg: &'a TypeRegistry,
        res: Reservation,
        objects: usize,
    ) -> GraphBuilder<'a> {
        GraphBuilder {
            heap,
            reg,
            next: res.base,
            res,
            objects: Vec::with_capacity(objects),
        }
    }

    fn table(&self, class: ClassId) -> Result<&'a MethodTable, GraphError> {
        if class.0 as usize >= self.reg.len() {
            return Err("unregistered class".into());
        }
        Ok(self.reg.table(class))
    }

    /// Address of a carved object.
    pub(crate) fn addr(&self, obj: GraphRef) -> Result<usize, GraphError> {
        self.objects
            .get(obj.0 as usize)
            .copied()
            .ok_or_else(|| "object index beyond the graph".into())
    }

    /// Stamp a zeroed object of `size` bytes at the next free byte.
    fn carve(
        &mut self,
        class: ClassId,
        size: usize,
        extra: usize,
    ) -> Result<(GraphRef, usize), GraphError> {
        let extra = u32::try_from(extra).map_err(|_| "array too long")?;
        let left = (self.res.base + self.res.len - self.next)
            .checked_sub(size)
            .ok_or("graph exceeds its reservation")?;
        // A free-list run can only take back a tail that holds a header.
        if !self.res.at_top && left != 0 && left < layout::HEADER_SIZE {
            return Err("graph does not fill its reservation".into());
        }
        let addr = self.next;
        let flags = if self.res.old { obj_flags::IN_OLD } else { 0 };
        Heap::stamp(
            addr,
            size,
            ObjHeader {
                mt: class.0,
                flags,
                size: 0,
                extra,
            },
        );
        self.next += size;
        self.objects.push(addr);
        Ok((GraphRef(self.objects.len() as u32 - 1), addr))
    }

    /// Carve a class instance (fields zeroed / null).
    pub fn instance(&mut self, class: ClassId) -> Result<GraphRef, GraphError> {
        let mt = self.table(class)?;
        if !matches!(mt.kind, TypeKind::Class) {
            return Err("not a class".into());
        }
        Ok(self.carve(class, layout::class_alloc_size(mt), 0)?.0)
    }

    /// Carve a primitive array holding `data` (its elements' raw bytes).
    pub fn prim_array(&mut self, class: ClassId, data: &[u8]) -> Result<GraphRef, GraphError> {
        let TypeKind::PrimArray(k) = self.table(class)?.kind else {
            return Err("not a primitive array".into());
        };
        if !data.len().is_multiple_of(k.size()) {
            return Err("array bytes are not whole elements".into());
        }
        let len = data.len() / k.size();
        let (obj, addr) = self.carve(class, layout::prim_array_alloc_size(k, len), len)?;
        // SAFETY: `carve` placed a `len`-element array of `k` at `addr`
        // inside the reservation, so its data window is `data.len()` bytes.
        unsafe {
            let (p, _) = ObjectRef(addr).prim_array_data(k.size());
            std::ptr::copy_nonoverlapping(data.as_ptr(), p, data.len());
        }
        Ok(obj)
    }

    /// Carve an object array of `len` null references.
    pub fn obj_array(&mut self, class: ClassId, len: usize) -> Result<GraphRef, GraphError> {
        if !matches!(self.table(class)?.kind, TypeKind::ObjArray(_)) {
            return Err("not an object array".into());
        }
        if len > u32::MAX as usize {
            return Err("array too long".into());
        }
        Ok(self.carve(class, layout::obj_array_alloc_size(len), len)?.0)
    }

    /// Carve a multidimensional array of shape `dims` holding `data`
    /// (row-major elements, raw bytes).
    pub fn md_array(
        &mut self,
        class: ClassId,
        dims: &[u32],
        data: &[u8],
    ) -> Result<GraphRef, GraphError> {
        let TypeKind::MdArray { elem, rank } = self.table(class)?.kind else {
            return Err("not a multidimensional array".into());
        };
        if dims.len() != rank as usize {
            return Err("md rank mismatch".into());
        }
        let count = dims
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d as usize))
            .ok_or("md dimensions overflow")?;
        if count.checked_mul(elem.size()) != Some(data.len()) {
            return Err("md data does not match its dimensions".into());
        }
        // `count * elem.size()` is `data.len()`, so the size cannot overflow.
        let (obj, addr) = self.carve(class, layout::md_array_alloc_size(elem, dims), count)?;
        let o = ObjectRef(addr);
        // SAFETY: `carve` placed a rank-`rank` md-array of `count` elements
        // at `addr`: its dims words and its `data.len()`-byte data window
        // both lie inside the allocation.
        unsafe {
            let p = o.payload_ptr() as *mut u32;
            for (i, &d) in dims.iter().enumerate() {
                std::ptr::write(p.add(i), d);
            }
            let (p, _) = o.md_data(rank, elem.size());
            std::ptr::copy_nonoverlapping(data.as_ptr(), p, data.len());
        }
        Ok(obj)
    }

    /// A carved class instance's field descriptor.
    fn field(&self, obj: GraphRef, field: usize) -> Result<(usize, FieldType, u32), GraphError> {
        let addr = self.addr(obj)?;
        // SAFETY: `addr` is an object this builder stamped.
        let mt = self
            .reg
            .table(ClassId(unsafe { ObjectRef(addr).header().mt }));
        let fd = mt.fields.get(field).ok_or("field index beyond the class")?;
        Ok((addr, fd.ty, fd.offset))
    }

    /// Write a primitive field from its raw bytes.
    pub fn write_prim(
        &mut self,
        obj: GraphRef,
        field: usize,
        raw: &[u8],
    ) -> Result<(), GraphError> {
        let (addr, ty, offset) = self.field(obj, field)?;
        match ty {
            FieldType::Prim(k) if k.size() == raw.len() => {}
            _ => return Err("not a primitive field of that size".into()),
        }
        // SAFETY: the method table puts a `raw.len()`-byte field at
        // `offset` inside the object.
        unsafe {
            let p = ObjectRef(addr).payload_ptr().add(offset as usize);
            std::ptr::copy_nonoverlapping(raw.as_ptr(), p, raw.len());
        }
        Ok(())
    }

    /// Point a reference field at another object of the graph.
    pub fn set_ref(
        &mut self,
        obj: GraphRef,
        field: usize,
        target: GraphRef,
    ) -> Result<(), GraphError> {
        let (addr, ty, offset) = self.field(obj, field)?;
        if !matches!(ty, FieldType::Ref(_)) {
            return Err("not a reference field".into());
        }
        let target = self.addr(target)?;
        // SAFETY: the method table puts a reference slot at `offset`; the
        // target is an object of this graph, in the same generation, so no
        // barrier entry is needed.
        unsafe { ObjectRef(addr).write_ref_at(offset as usize, ObjectRef(target)) };
        Ok(())
    }

    /// Point element `idx` of an object array at another object of the
    /// graph.
    pub fn set_elem(
        &mut self,
        obj: GraphRef,
        idx: usize,
        target: GraphRef,
    ) -> Result<(), GraphError> {
        let addr = self.addr(obj)?;
        let target = self.addr(target)?;
        let o = ObjectRef(addr);
        // SAFETY: `addr` is an object this builder stamped; the kind and
        // bound checks keep the slot write inside it.
        unsafe {
            let mt = self.reg.table(ClassId(o.header().mt));
            if !matches!(mt.kind, TypeKind::ObjArray(_)) || idx >= o.array_len() {
                return Err("not an object-array element".into());
            }
            *o.obj_array_slot(idx) = target;
        }
        Ok(())
    }
}

impl Drop for GraphBuilder<'_> {
    fn drop(&mut self) {
        self.heap.release_tail(self.res, self.next - self.res.base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;
    use crate::types::ElemKind;
    use crate::{verify_heap, Handle, MotorThread, Vm, VmConfig};
    use std::sync::Arc;

    /// 4 KiB young generation: graphs above 2 KiB go to the elder one.
    fn small_vm() -> Arc<Vm> {
        Vm::new(VmConfig {
            heap: HeapConfig {
                young_bytes: 4096,
                old_segment_bytes: 64 * 1024,
                old_soft_limit: 4 * 1024 * 1024,
            },
            ..Default::default()
        })
    }

    struct Types {
        node: ClassId,
        ints: ClassId,
        nodes: ClassId,
        grid: ClassId,
    }

    fn types(vm: &Vm) -> Types {
        let mut reg = vm.registry_mut();
        let ints = reg.prim_array(ElemKind::I32);
        let next = ClassId(reg.len() as u32);
        let node = reg
            .define_class("Node")
            .prim("tag", ElemKind::I32)
            .transportable("data", ints)
            .transportable("next", next)
            .build();
        let nodes = reg.obj_array(node);
        let grid = reg.md_array(ElemKind::F64, 2);
        Types {
            node,
            ints,
            nodes,
            grid,
        }
    }

    fn node_size(vm: &Vm, ty: &Types) -> usize {
        layout::class_alloc_size(vm.registry().table(ty.node))
    }

    /// A list of `n` nodes, node `i` tagged `i` and holding `[i, i]`.
    fn list_bytes(vm: &Vm, ty: &Types, n: usize) -> usize {
        n * (node_size(vm, ty) + layout::prim_array_alloc_size(ElemKind::I32, 2))
    }

    fn build_list(t: &MotorThread, ty: &Types, n: usize) -> Handle {
        let bytes = list_bytes(t.vm(), ty, n);
        t.alloc_graph::<GraphError>(bytes, 2 * n, |g| {
            for i in 0..n as i32 {
                g.instance(ty.node)?;
                let data: Vec<u8> = [i, i].iter().flat_map(|v| v.to_ne_bytes()).collect();
                g.prim_array(ty.ints, &data)?;
            }
            for i in 0..n as u32 {
                let node = GraphRef(2 * i);
                g.write_prim(node, 0, &(i as i32).to_ne_bytes())?;
                g.set_ref(node, 1, GraphRef(2 * i + 1))?;
                if i + 1 < n as u32 {
                    g.set_ref(node, 2, GraphRef(2 * i + 2))?;
                }
            }
            Ok(GraphRef(0))
        })
        .unwrap()
    }

    fn check_list(t: &MotorThread, head: Handle, n: usize) {
        let mut cur = t.clone_handle(head);
        for i in 0..n as i32 {
            assert_eq!(t.get_prim::<i32>(cur, 0), i);
            let data = t.get_ref(cur, 1);
            let mut got = [0i32; 2];
            t.prim_read(data, 0, &mut got);
            assert_eq!(got, [i, i]);
            t.release(data);
            let next = t.get_ref(cur, 2);
            t.release(cur);
            cur = next;
        }
        assert!(t.is_null(cur), "list ends after {n} nodes");
        t.release(cur);
    }

    #[test]
    fn small_graph_fills_young_reservation_exactly_with_one_handle() {
        let vm = small_vm();
        let ty = types(&vm);
        let t = MotorThread::attach(Arc::clone(&vm));
        let (used_before, handles_before) = {
            let st = vm.state();
            (st.heap.young().used(), st.handles.live())
        };
        let head = build_list(&t, &ty, 4);
        {
            let st = vm.state();
            assert_eq!(
                st.heap.young().used() - used_before,
                list_bytes(&vm, &ty, 4)
            );
            assert_eq!(
                st.handles.live() - handles_before,
                1,
                "one handle, the root"
            );
        }
        assert!(t.is_young(head));
        check_list(&t, head, 4);
        verify_heap(&vm).unwrap();
    }

    #[test]
    fn large_graph_lands_in_the_elder_generation_in_one_piece() {
        let vm = small_vm();
        let ty = types(&vm);
        let t = MotorThread::attach(Arc::clone(&vm));
        let n = 100;
        assert!(list_bytes(&vm, &ty, n) > vm.state().heap.young().capacity());
        let head = build_list(&t, &ty, n);
        assert!(!t.is_young(head));
        assert_eq!(vm.stats_snapshot().minor_collections, 0);
        check_list(&t, head, n);
        verify_heap(&vm).unwrap();
        // Elder objects never move; the graph needs no remembered set.
        assert!(vm.state().remset.is_empty());
        t.collect_full();
        check_list(&t, head, n);
        verify_heap(&vm).unwrap();
    }

    #[test]
    fn large_graphs_reuse_swept_elder_space() {
        let vm = small_vm();
        let ty = types(&vm);
        let t = MotorThread::attach(Arc::clone(&vm));
        // 2000 dead 6.4 KB graphs: 12.8 MB through a 4 MiB elder limit.
        for _ in 0..2000 {
            let h = build_list(&t, &ty, 100);
            t.release(h);
        }
        assert!(vm.stats_snapshot().full_collections >= 1);
        let (_, capacity) = vm.state().heap.usage();
        // The limit plus what segment tails too short for a graph waste.
        let limit = vm.state().heap.config().old_soft_limit;
        assert!(
            capacity as usize <= limit * 5 / 4,
            "heap grew to {capacity} bytes"
        );
        let head = build_list(&t, &ty, 100);
        check_list(&t, head, 100);
        verify_heap(&vm).unwrap();
    }

    #[test]
    fn full_young_generation_is_collected_before_the_reservation() {
        let vm = small_vm();
        let ty = types(&vm);
        let t = MotorThread::attach(Arc::clone(&vm));
        // Dead garbage fills the young generation.
        for _ in 0..15 {
            let h = t.alloc_prim_array(ElemKind::U8, 256);
            t.release(h);
        }
        let free = {
            let st = vm.state();
            st.heap.young().capacity() - st.heap.young().used()
        };
        assert!(free < list_bytes(&vm, &ty, 12));
        let before = vm.stats_snapshot();
        let head = build_list(&t, &ty, 12);
        let after = vm.stats_snapshot();
        assert_eq!(after.minor_collections, before.minor_collections + 1);
        assert_eq!(
            after.bytes_promoted, before.bytes_promoted,
            "nothing to promote"
        );
        assert!(t.is_young(head));
        check_list(&t, head, 12);
        verify_heap(&vm).unwrap();
    }

    #[test]
    fn arrays_of_every_kind_are_carved_and_filled() {
        let vm = small_vm();
        let ty = types(&vm);
        let t = MotorThread::attach(Arc::clone(&vm));
        let grid: Vec<u8> = (0..6).flat_map(|v| (v as f64).to_ne_bytes()).collect();
        let bytes = layout::obj_array_alloc_size(3)
            + node_size(&vm, &ty)
            + layout::md_array_alloc_size(ElemKind::F64, &[2, 3]);
        let (arr, md) = {
            let mut md = None;
            let arr = t
                .alloc_graph::<GraphError>(bytes, 3, |g| {
                    let arr = g.obj_array(ty.nodes, 3)?;
                    let node = g.instance(ty.node)?;
                    md = Some(g.md_array(ty.grid, &[2, 3], &grid)?);
                    g.set_elem(arr, 2, node)?;
                    g.write_prim(node, 0, &7i32.to_ne_bytes())?;
                    Ok(arr)
                })
                .unwrap();
            (arr, md.unwrap())
        };
        assert_eq!(md, GraphRef(2));
        assert_eq!(t.array_len(arr), 3);
        let e0 = t.obj_array_get(arr, 0);
        assert!(t.is_null(e0));
        let e2 = t.obj_array_get(arr, 2);
        assert_eq!(t.get_prim::<i32>(e2, 0), 7);
        verify_heap(&vm).unwrap();
    }

    type Build = fn(&mut GraphBuilder<'_>, &Types) -> Result<GraphRef, GraphError>;

    #[test]
    fn refused_requests_leave_the_heap_parseable() {
        let vm = small_vm();
        let ty = types(&vm);
        let t = MotorThread::attach(Arc::clone(&vm));
        let used_before = vm.state().heap.young().used();
        let size = node_size(&vm, &ty);
        let refusals: [Build; 6] = [
            |g, ty| {
                let a = g.instance(ty.node)?;
                g.set_ref(a, 2, GraphRef(9))?;
                Ok(a)
            },
            |g, ty| {
                let a = g.instance(ty.node)?;
                g.set_ref(a, 0, a)?;
                Ok(a)
            },
            |g, ty| {
                let a = g.instance(ty.node)?;
                g.write_prim(a, 0, &[1, 2])?;
                Ok(a)
            },
            |g, ty| {
                g.instance(ty.node)?;
                g.instance(ty.node)
            },
            |g, ty| g.prim_array(ty.node, &[]),
            |g, ty| g.md_array(ty.grid, &[u32::MAX, u32::MAX, 2], &[]),
        ];
        for (i, refuse) in refusals.iter().enumerate() {
            let r = t.alloc_graph(size, 1, |g| refuse(g, &ty));
            assert!(r.is_err(), "request {i} must be refused");
            verify_heap(&vm).unwrap();
        }
        // Each refusal kept at most the one node it carved.
        assert!(vm.state().heap.young().used() - used_before <= refusals.len() * size);
        assert!(t
            .alloc_graph::<GraphError>(12, 1, |g| g.instance(ty.node))
            .is_err());
    }
}
