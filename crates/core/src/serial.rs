//! The Motor custom serialization mechanism (paper §7.5).
//!
//! Produces "a flat object-tree representation with two parts: a type
//! table, which details class information; and object data, which consists
//! of the objects laid out side-by-side, prefixed with an internal type
//! reference. Object references are exchanged for their local internal
//! equivalent. References to objects not included in the serialization are
//! swapped to null."
//!
//! Traversal follows the opt-in `[Transportable]` attribute: class fields
//! are propagated only when their `FieldDesc` carries the Transportable
//! bit; object-array elements are always propagated; unmarked references
//! are nulled (paper §4.2.2).
//!
//! Two details the paper calls out:
//!
//! * **The visited-object structure.** The paper's serializer used a
//!   linear one — "at the time of writing we employ a linear structure to
//!   record objects visited during serialization. This causes excessive
//!   search times with large numbers of objects" — which is what produces
//!   Motor's fall-off beyond ~2048 objects in Figure 10. The default here
//!   is the structure the paper promised instead,
//!   [`VisitedStrategy::Hashed`]: a table keyed by object address with an
//!   in-tree multiplicative hasher, one probe per reference lookup.
//!   [`VisitedStrategy::Linear`] is kept only so the Figure 10 "Motor"
//!   series (and the `ablation_visited` benchmark) can reproduce the
//!   paper's quadratic tail.
//! * **The Transportable query** uses the fast FieldDesc bit by default;
//!   the slow metadata/reflection path ([`AttrLookup::Reflection`]) is kept
//!   for the ablation the paper implies ("introspecting type fields ...
//!   using the reflection library ... is a relatively slow operation").
//!
//! The **split representation** required by scatter/gather is provided by
//! [`Serializer::serialize_array_range`]: each part is a complete,
//! independently deserializable representation (own type table) whose root
//! is the sub-array — "a single split representation is constructed of
//! many regular representations ... each individually deserialisable at
//! the receiving end."
//!
//! ## Wire format
//!
//! ```text
//! [u32 type_count] type entries...
//!   class:      [0][name][u16 nfields] per field: [0,prim_tag]|[1,transportable] [name]
//!   prim array: [1][elem_tag]
//!   obj array:  [2][u32 elem_type_index]
//!   md array:   [3][elem_tag][rank]
//! [u32 object_count] object records...
//!   each: [u32 type_index] + payload
//!   class payload:       field values in declaration order
//!                        (prims raw LE; refs as u32 object index / NULL)
//!   prim array payload:  [u32 len][data]
//!   obj array payload:   [u32 len][u32 index/NULL ...]
//!   md array payload:    [u8 rank][u32 dims...][data]
//! Root object = record 0.
//! ```
//!
//! ## Deserialization
//!
//! [`Serializer::deserialize`] treats its input as untrusted. Phase A
//! parses and checks every record, bounding each wire count by the bytes
//! left, and sums the graph's exact heap size with checked arithmetic;
//! nothing is allocated on the heap yet. Phase B reserves that size once
//! through [`MotorThread::alloc_graph`], which collects first if the young
//! generation lacks room (none of the new graph is live then, so nothing
//! of it is promoted) and places a graph above the large-object threshold
//! in the elder generation in one piece. Under one hold of the VM state
//! lock it carves every record, writes fields and patches references by
//! address; only the root gets a handle.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use motor_obs::{alloc_span_id, EventKind, Metric};
use motor_runtime::layout;
use motor_runtime::object::ObjectRef;
use motor_runtime::{ClassId, ElemKind, FieldType, GraphRef, Handle, MotorThread, TypeKind};

use crate::error::{CoreError, CoreResult};

/// How visited objects are recorded during the graph walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VisitedStrategy {
    /// Linear list with O(n) lookup — the paper's implementation, kept
    /// only to reproduce Figure 10's "Motor" series.
    Linear,
    /// Address-keyed hash table with O(1) lookup — the paper's announced
    /// improvement, and the default.
    #[default]
    Hashed,
}

/// How the Transportable attribute is queried per field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttrLookup {
    /// The Transportable bit on the FieldDesc (Motor's fast path, §7.5).
    #[default]
    FieldDescBit,
    /// Name-keyed metadata lookup (the slow reflection path).
    Reflection,
}

/// Serialization statistics (tests and ablations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerializeStats {
    /// Objects in the representation.
    pub objects: usize,
    /// Total visited-structure probe comparisons performed.
    pub visited_probes: u64,
    /// Bytes produced.
    pub bytes: usize,
}

/// Null reference marker in the object data.
const NULL_REF: u32 = u32::MAX;

const TT_CLASS: u8 = 0;
const TT_PRIM_ARRAY: u8 = 1;
const TT_OBJ_ARRAY: u8 = 2;
const TT_MD_ARRAY: u8 = 3;

/// The Motor serializer bound to a managed thread.
pub struct Serializer<'t> {
    thread: &'t MotorThread,
    strategy: VisitedStrategy,
    attrs: AttrLookup,
}

/// Multiplicative hasher for keys the runtime made itself — object
/// addresses and class ids, never bytes from the wire — so it needs no
/// protection against crafted collisions. The folded 128-bit product mixes
/// every key bit into both the low bits (the table index) and the high
/// bits (the table's tag byte).
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64((self.0 << 8) | u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        let m = u128::from(n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

type AddrMap<K> = HashMap<K, u32, BuildHasherDefault<AddrHasher>>;

/// Initial size of the visited set and the discovery list: one allocation
/// covers graphs up to this many objects.
const VISITED_PRESIZE: usize = 256;

/// The linear visited list's scan. Kept out of line: inlined into
/// `Visited::get` next to the hashed arm it compiled to a loop ~40% slower
/// at 8192 objects, which moved the Fig. 10 tail.
#[inline(never)]
fn linear_find(v: &[usize], addr: usize) -> Option<usize> {
    v.iter().position(|&a| a == addr)
}

/// Visited-object record: address → object index. The linear variant is a
/// plain address array whose position *is* the object index (discovery
/// order), scanned per lookup — the paper's "linear structure to record
/// objects visited during serialization".
enum Visited {
    Linear(Vec<usize>),
    Hashed(AddrMap<usize>),
}

impl Visited {
    fn new(strategy: VisitedStrategy) -> Visited {
        match strategy {
            VisitedStrategy::Linear => Visited::Linear(Vec::new()),
            VisitedStrategy::Hashed => Visited::Hashed(AddrMap::with_capacity_and_hasher(
                VISITED_PRESIZE,
                Default::default(),
            )),
        }
    }

    fn get(&self, addr: usize, probes: &mut u64) -> Option<u32> {
        match self {
            Visited::Linear(v) => {
                if let Some(i) = linear_find(v, addr) {
                    *probes += i as u64 + 1;
                    return Some(i as u32);
                }
                *probes += v.len() as u64;
                None
            }
            Visited::Hashed(m) => {
                *probes += 1;
                m.get(&addr).copied()
            }
        }
    }

    fn insert(&mut self, addr: usize, idx: u32) {
        match self {
            Visited::Linear(v) => {
                debug_assert_eq!(idx as usize, v.len(), "discovery order is the index");
                v.push(addr);
            }
            Visited::Hashed(m) => {
                m.insert(addr, idx);
            }
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// Sequential reader over a serialized buffer.
struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(b: &'a [u8]) -> Reader<'a> {
        Reader { b, pos: 0 }
    }
    fn take(&mut self, n: usize) -> CoreResult<&'a [u8]> {
        if n > self.b.len() - self.pos {
            return Err(CoreError::Serialization(format!(
                "truncated representation at byte {} (+{n})",
                self.pos
            )));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> CoreResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> CoreResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> CoreResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// A wire count of items at least `min_bytes` long each, bounded by
    /// the bytes left so no count can allocate beyond the input's size.
    fn count(&mut self, min_bytes: usize) -> CoreResult<usize> {
        let n = self.u32()? as usize;
        if n > (self.b.len() - self.pos) / min_bytes {
            return Err(CoreError::Serialization(format!(
                "count {n} at byte {} exceeds the bytes left",
                self.pos - 4
            )));
        }
        Ok(n)
    }
    fn rest(&self) -> &'a [u8] {
        &self.b[self.pos..]
    }
    fn str(&mut self) -> CoreResult<String> {
        let n = self.u16()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec())
            .map_err(|_| CoreError::Serialization("non-UTF8 type name".into()))
    }
}

/// Serialization working state.
struct SerState<'r> {
    reg: &'r motor_runtime::TypeRegistry,
    visited: Visited,
    probes: u64,
    /// Discovery-ordered object addresses.
    objects: Vec<usize>,
    /// Sender ClassId → type-table index.
    type_index: AddrMap<u32>,
    type_entries: Vec<Vec<u8>>,
}

impl SerState<'_> {
    /// Register a type (recursively interning object-array element types),
    /// returning its table index.
    fn intern_type(&mut self, mt_id: u32) -> u32 {
        if let Some(&i) = self.type_index.get(&mt_id) {
            return i;
        }
        // Reserve the slot first so recursion on self-referential shapes
        // terminates.
        let idx = self.type_entries.len() as u32;
        self.type_index.insert(mt_id, idx);
        self.type_entries.push(Vec::new());

        let (kind, name, fields) = {
            let mt = self.reg.table(ClassId(mt_id));
            (mt.kind.clone(), mt.name.clone(), mt.fields.clone())
        };
        let mut e = Vec::new();
        match kind {
            TypeKind::Class => {
                e.push(TT_CLASS);
                put_str(&mut e, &name);
                put_u16(&mut e, fields.len() as u16);
                for f in &fields {
                    match f.ty {
                        FieldType::Prim(k) => {
                            e.push(0);
                            e.push(k.tag());
                        }
                        FieldType::Ref(_) => {
                            e.push(1);
                            e.push(if f.is_transportable() { 1 } else { 0 });
                        }
                    }
                    put_str(&mut e, &f.name);
                }
            }
            TypeKind::PrimArray(k) => {
                e.push(TT_PRIM_ARRAY);
                e.push(k.tag());
            }
            TypeKind::ObjArray(elem) => {
                let elem_idx = self.intern_type(elem.0);
                e.push(TT_OBJ_ARRAY);
                put_u32(&mut e, elem_idx);
            }
            TypeKind::MdArray { elem, rank } => {
                e.push(TT_MD_ARRAY);
                e.push(elem.tag());
                e.push(rank);
            }
        }
        self.type_entries[idx as usize] = e;
        idx
    }

    /// Assign an object index, discovering the object if new.
    fn discover(&mut self, addr: usize) -> u32 {
        if let Some(idx) = self.visited.get(addr, &mut self.probes) {
            return idx;
        }
        let idx = self.objects.len() as u32;
        self.visited.insert(addr, idx);
        self.objects.push(addr);
        idx
    }
}

impl<'t> Serializer<'t> {
    /// Create a serializer with Motor's defaults (hashed visited set,
    /// FieldDesc-bit attribute lookup).
    pub fn new(thread: &'t MotorThread) -> Serializer<'t> {
        Serializer {
            thread,
            strategy: VisitedStrategy::default(),
            attrs: AttrLookup::default(),
        }
    }

    /// Override the visited-structure strategy.
    pub fn with_strategy(mut self, strategy: VisitedStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Override the attribute-lookup path.
    pub fn with_attr_lookup(mut self, attrs: AttrLookup) -> Self {
        self.attrs = attrs;
        self
    }

    fn is_transportable(&self, mt: &motor_runtime::MethodTable, field_idx: usize) -> bool {
        match self.attrs {
            AttrLookup::FieldDescBit => mt.fields[field_idx].is_transportable(),
            AttrLookup::Reflection => {
                // The metadata path: find the field by name (string-compare
                // scan, as reflection over type metadata would).
                let name = mt.fields[field_idx].name.clone();
                mt.field_by_name(&name)
                    .map(|(_, f)| f.is_transportable())
                    .unwrap_or(false)
            }
        }
    }

    /// Serialize the object graph rooted at `root`.
    pub fn serialize(&self, root: Handle) -> CoreResult<(Vec<u8>, SerializeStats)> {
        if self.thread.is_null(root) {
            return Err(CoreError::NullBuffer);
        }
        let addr = self.thread.vm().handle_addr(root);
        self.serialize_addrs(&[addr], None)
    }

    /// Serialize a sub-range of an array as an independently
    /// deserializable representation — one part of the split
    /// representation used by the scatter/gather operations (§7.5).
    pub fn serialize_array_range(
        &self,
        arr: Handle,
        offset: usize,
        count: usize,
    ) -> CoreResult<(Vec<u8>, SerializeStats)> {
        if self.thread.is_null(arr) {
            return Err(CoreError::NullBuffer);
        }
        let len = self.thread.array_len(arr);
        if offset + count > len {
            return Err(CoreError::RangeOutOfBounds { offset, count, len });
        }
        let vm = self.thread.vm();
        let addr = vm.handle_addr(arr);
        let obj = ObjectRef(addr);
        // SAFETY: cooperative, non-polling FCall context: stable address.
        let mt_id = unsafe { obj.header().mt };
        let reg = vm.registry();
        match reg.table(ClassId(mt_id)).kind.clone() {
            TypeKind::ObjArray(elem) => {
                // Synthetic object-array root over the range elements.
                let mut elems = Vec::with_capacity(count);
                for i in offset..offset + count {
                    // SAFETY: bounds checked above.
                    elems.push(unsafe { *obj.obj_array_slot(i) });
                }
                drop(reg);
                self.serialize_addrs(
                    &[],
                    Some(RangeRoot::Objects {
                        elem: elem.0,
                        elems,
                    }),
                )
            }
            TypeKind::PrimArray(k) => {
                let mut data = vec![0u8; count * k.size()];
                // SAFETY: bounds checked; cooperative context.
                unsafe {
                    let (p, _) = obj.prim_array_data(k.size());
                    std::ptr::copy_nonoverlapping(
                        p.add(offset * k.size()),
                        data.as_mut_ptr(),
                        data.len(),
                    );
                }
                drop(reg);
                self.serialize_addrs(&[], Some(RangeRoot::Prims { kind: k, data }))
            }
            _ => Err(CoreError::Serialization(
                "range serialization requires an array".into(),
            )),
        }
    }

    /// Core serialization over explicit roots. `range_root`, if present,
    /// becomes record 0 (the synthetic split-representation root).
    fn serialize_addrs(
        &self,
        roots: &[usize],
        range_root: Option<RangeRoot>,
    ) -> CoreResult<(Vec<u8>, SerializeStats)> {
        let vm = self.thread.vm();
        // Trace the whole pass: `a` is a process-unique pass id the trace
        // merger pairs begin/end on; the end event carries the output size.
        let pass = alloc_span_id();
        vm.metrics().event3(EventKind::SerBegin, pass, 0, 0);
        let reg = vm.registry();
        let mut st = SerState {
            reg: &reg,
            visited: Visited::new(self.strategy),
            probes: 0,
            objects: Vec::with_capacity(VISITED_PRESIZE),
            type_index: AddrMap::default(),
            type_entries: Vec::new(),
        };
        let mut obj_data: Vec<u8> = Vec::new();
        let mut record_count = 0usize;

        // Synthetic root first, if any.
        if let Some(rr) = &range_root {
            match rr {
                RangeRoot::Objects { elem, elems } => {
                    // An object-array type entry over the element class.
                    let elem_idx_entry = st.intern_type(*elem);
                    let tidx = st.type_entries.len() as u32;
                    let mut e = Vec::new();
                    e.push(TT_OBJ_ARRAY);
                    put_u32(&mut e, elem_idx_entry);
                    st.type_entries.push(e);
                    put_u32(&mut obj_data, tidx);
                    put_u32(&mut obj_data, elems.len() as u32);
                    for &a in elems {
                        if a == 0 {
                            put_u32(&mut obj_data, NULL_REF);
                        } else {
                            // Offset element indices by one: the synthetic
                            // root is record 0 and discovered objects start
                            // at record 1.
                            put_u32(&mut obj_data, st.discover(a) + 1);
                        }
                    }
                }
                RangeRoot::Prims { kind, data } => {
                    let tidx = st.type_entries.len() as u32;
                    st.type_entries.push(vec![TT_PRIM_ARRAY, kind.tag()]);
                    put_u32(&mut obj_data, tidx);
                    put_u32(&mut obj_data, (data.len() / kind.size()) as u32);
                    obj_data.extend_from_slice(data);
                }
            }
            record_count += 1;
        }
        let index_offset: u32 = if range_root.is_some() { 1 } else { 0 };
        for &r in roots {
            st.discover(r);
        }

        // Emit in discovery order; the list grows as references intern.
        let mut emit = 0usize;
        while emit < st.objects.len() {
            let addr = st.objects[emit];
            emit += 1;
            record_count += 1;
            let obj = ObjectRef(addr);
            // SAFETY: cooperative, non-polling FCall context.
            let (mt_id, extra) = unsafe {
                let h = obj.header();
                (h.mt, h.extra as usize)
            };
            let tidx = st.intern_type(mt_id);
            put_u32(&mut obj_data, tidx);
            // `st.reg` is a plain `&'r` copy, so `mt` borrows the registry
            // directly and `st` stays mutably usable below.
            let mt: &motor_runtime::MethodTable = st.reg.table(ClassId(mt_id));
            match &mt.kind {
                TypeKind::Class => {
                    for (fi, f) in mt.fields.iter().enumerate() {
                        match f.ty {
                            FieldType::Prim(k) => {
                                // SAFETY: method-table offsets.
                                unsafe {
                                    let p = obj.payload_ptr().add(f.offset as usize);
                                    obj_data
                                        .extend_from_slice(std::slice::from_raw_parts(p, k.size()));
                                }
                            }
                            FieldType::Ref(_) => {
                                // SAFETY: as above.
                                let v = unsafe { obj.read_ref_at(f.offset as usize) };
                                if v.is_null() || !self.is_transportable(mt, fi) {
                                    // "References are replaced with null"
                                    // unless marked Transportable (§4.2.2).
                                    put_u32(&mut obj_data, NULL_REF);
                                } else {
                                    put_u32(&mut obj_data, st.discover(v.0) + index_offset);
                                }
                            }
                        }
                    }
                }
                TypeKind::PrimArray(k) => {
                    put_u32(&mut obj_data, extra as u32);
                    // SAFETY: array data window.
                    unsafe {
                        let (p, bytes) = obj.prim_array_data(k.size());
                        obj_data.extend_from_slice(std::slice::from_raw_parts(p, bytes));
                    }
                }
                TypeKind::ObjArray(_) => {
                    put_u32(&mut obj_data, extra as u32);
                    for i in 0..extra {
                        // SAFETY: i < length.
                        let elem = unsafe { *obj.obj_array_slot(i) };
                        if elem == 0 {
                            put_u32(&mut obj_data, NULL_REF);
                        } else {
                            put_u32(&mut obj_data, st.discover(elem) + index_offset);
                        }
                    }
                }
                TypeKind::MdArray { elem, rank } => {
                    let (elem, rank) = (*elem, *rank);
                    // SAFETY: md accessors.
                    unsafe {
                        let dims = obj.md_dims(rank);
                        obj_data.push(rank);
                        for d in &dims {
                            put_u32(&mut obj_data, *d);
                        }
                        let (p, bytes) = obj.md_data(rank, elem.size());
                        obj_data.extend_from_slice(std::slice::from_raw_parts(p, bytes));
                    }
                }
            }
        }

        let mut out = Vec::with_capacity(obj_data.len() + 64);
        put_u32(&mut out, st.type_entries.len() as u32);
        for e in &st.type_entries {
            out.extend_from_slice(e);
        }
        put_u32(&mut out, record_count as u32);
        out.extend_from_slice(&obj_data);
        let stats = SerializeStats {
            objects: record_count,
            visited_probes: st.probes,
            bytes: out.len(),
        };
        let reg = self.thread.vm().metrics();
        reg.bump(Metric::SerOps);
        reg.add(Metric::SerObjects, stats.objects as u64);
        reg.add(Metric::SerBytes, stats.bytes as u64);
        reg.add(Metric::SerVisitedProbes, stats.visited_probes);
        reg.event3(
            EventKind::SerEnd,
            pass,
            stats.bytes as u64,
            stats.objects as u64,
        );
        Ok((out, stats))
    }

    /// Reconstruct the object graph; returns a handle to the root object
    /// (record 0), the only handle the pass creates. See the module docs
    /// for the two phases.
    pub fn deserialize(&self, data: &[u8]) -> CoreResult<Handle> {
        let metrics = self.thread.vm().metrics();
        metrics.bump(Metric::DeserOps);
        metrics.add(Metric::DeserBytes, data.len() as u64);
        let pass = alloc_span_id();
        metrics.event3(EventKind::DeserBegin, pass, data.len() as u64, 0);
        let mut r = Reader::new(data);
        let types = self.read_type_table(&mut r)?;

        // ---- Phase A: parse every record and size the graph ----
        // Each record starts with its u32 type index.
        let object_count = r.count(4)?;
        if object_count == 0 {
            return Err(CoreError::Serialization("empty representation".into()));
        }
        let overflow = || CoreError::Serialization("object graph size overflows".into());
        // (type index, payload) per record.
        let mut records: Vec<(usize, &[u8])> = Vec::with_capacity(object_count);
        let mut graph_bytes = 0usize;
        for _ in 0..object_count {
            let t = r.u32()? as usize;
            let start = r.pos;
            let size = match types.get(t) {
                Some(LocalType::Class { fields, size, .. }) => {
                    for f in fields {
                        r.take(f.map_or(4, |k| k.size()))?;
                    }
                    *size
                }
                Some(LocalType::PrimArray { kind, .. }) => {
                    let len = r.u32()? as usize;
                    r.take(len.checked_mul(kind.size()).ok_or_else(overflow)?)?;
                    layout::prim_array_alloc_size(*kind, len)
                }
                Some(LocalType::ObjArray { .. }) => {
                    let len = r.count(4)?;
                    r.take(4 * len)?;
                    layout::obj_array_alloc_size(len)
                }
                Some(LocalType::MdArray { elem, rank, .. }) => {
                    let dims = read_md_dims(&mut r, *rank)?;
                    let bytes = dims
                        .iter()
                        .try_fold(elem.size(), |n, &d| n.checked_mul(d as usize))
                        .ok_or_else(overflow)?;
                    r.take(bytes)?;
                    layout::md_array_alloc_size(*elem, &dims)
                }
                None => return Err(CoreError::Serialization(format!("bad type index {t}"))),
            };
            records.push((t, &data[start..r.pos]));
            graph_bytes = graph_bytes.checked_add(size).ok_or_else(overflow)?;
        }

        // ---- Phase B: one reservation, filled under one lock hold ----
        let root =
            self.thread
                .alloc_graph(graph_bytes, object_count, |g| -> CoreResult<GraphRef> {
                    // Carve every record in order, so object `i` is record `i`.
                    for &(t, payload) in &records {
                        let mut p = Reader::new(payload);
                        match &types[t] {
                            LocalType::Class { class, .. } => g.instance(*class)?,
                            LocalType::PrimArray { class, .. } => {
                                p.u32()?;
                                g.prim_array(*class, p.rest())?
                            }
                            LocalType::ObjArray { class, .. } => {
                                g.obj_array(*class, p.u32()? as usize)?
                            }
                            LocalType::MdArray { class, rank, .. } => {
                                let dims = read_md_dims(&mut p, *rank)?;
                                g.md_array(*class, &dims, p.rest())?
                            }
                        };
                    }
                    // Write fields and patch references by address.
                    for (i, &(t, payload)) in records.iter().enumerate() {
                        let obj = GraphRef(i as u32);
                        let mut p = Reader::new(payload);
                        match &types[t] {
                            LocalType::Class { fields, .. } => {
                                for (fi, f) in fields.iter().enumerate() {
                                    match f {
                                        Some(k) => g.write_prim(obj, fi, p.take(k.size())?)?,
                                        None => {
                                            let idx = p.u32()?;
                                            if idx != NULL_REF {
                                                g.set_ref(obj, fi, GraphRef(idx))?;
                                            }
                                        }
                                    }
                                }
                            }
                            LocalType::ObjArray { .. } => {
                                let len = p.u32()? as usize;
                                for ei in 0..len {
                                    let idx = p.u32()?;
                                    if idx != NULL_REF {
                                        g.set_elem(obj, ei, GraphRef(idx))?;
                                    }
                                }
                            }
                            LocalType::PrimArray { .. } | LocalType::MdArray { .. } => {}
                        }
                    }
                    Ok(GraphRef(0))
                })?;
        metrics.event3(
            EventKind::DeserEnd,
            pass,
            data.len() as u64,
            object_count as u64,
        );
        Ok(root)
    }

    /// Parse the type table and resolve every entry to a local class,
    /// checking each class's layout against the sender's.
    fn read_type_table(&self, r: &mut Reader<'_>) -> CoreResult<Vec<LocalType>> {
        let vm = self.thread.vm();
        let bad_tag = || CoreError::Serialization("bad element tag".into());
        // Every entry is at least its kind byte and one more.
        let type_count = r.count(2)?;
        // Object arrays name their element entry by index, which may come
        // later in the table; they are resolved in a second pass.
        let mut types: Vec<LocalType> = Vec::with_capacity(type_count);
        for _ in 0..type_count {
            let ty = match r.u8()? {
                TT_CLASS => {
                    let name = r.str()?;
                    let nf = r.u16()? as usize;
                    let mut wire_fields = Vec::with_capacity(nf);
                    for _ in 0..nf {
                        let ftag = r.u8()?;
                        let prim = if ftag == 0 {
                            Some(ElemKind::from_tag(r.u8()?).ok_or_else(bad_tag)?)
                        } else {
                            let _transportable = r.u8()?;
                            None
                        };
                        let fname = r.str()?;
                        wire_fields.push((fname, prim));
                    }
                    let reg = vm.registry();
                    let class = reg
                        .by_name(&name)
                        .ok_or_else(|| CoreError::UnknownType(name.clone()))?;
                    // Layout verification against the local class.
                    let mt = reg.table(class);
                    if mt.fields.len() != nf {
                        return Err(CoreError::Serialization(format!(
                            "type `{name}`: sender has {nf} fields, receiver {}",
                            mt.fields.len()
                        )));
                    }
                    for (lf, (wname, wprim)) in mt.fields.iter().zip(&wire_fields) {
                        let ok = match (lf.ty, wprim) {
                            (FieldType::Prim(a), Some(b)) => a == *b,
                            (FieldType::Ref(_), None) => true,
                            _ => false,
                        };
                        if lf.name != *wname || !ok {
                            return Err(CoreError::Serialization(format!(
                                "type `{name}`: field `{wname}` mismatch"
                            )));
                        }
                    }
                    LocalType::Class {
                        class,
                        fields: wire_fields.into_iter().map(|(_, prim)| prim).collect(),
                        size: layout::class_alloc_size(mt),
                    }
                }
                TT_PRIM_ARRAY => {
                    let kind = ElemKind::from_tag(r.u8()?).ok_or_else(bad_tag)?;
                    LocalType::PrimArray {
                        class: self.thread.array_class(kind),
                        kind,
                    }
                }
                TT_OBJ_ARRAY => LocalType::ObjArray {
                    class: ClassId(u32::MAX),
                    elem_type: r.u32()? as usize,
                },
                TT_MD_ARRAY => {
                    let elem = ElemKind::from_tag(r.u8()?).ok_or_else(bad_tag)?;
                    let rank = r.u8()?;
                    if rank < 2 {
                        return Err(CoreError::Serialization(format!("md rank {rank} below 2")));
                    }
                    LocalType::MdArray {
                        class: self.thread.md_array_class(elem, rank),
                        elem,
                        rank,
                    }
                }
                other => return Err(CoreError::Serialization(format!("bad type kind {other}"))),
            };
            types.push(ty);
        }
        for i in 0..types.len() {
            let LocalType::ObjArray { elem_type, .. } = types[i] else {
                continue;
            };
            let elem_class = match types.get(elem_type) {
                Some(LocalType::Class { class, .. } | LocalType::PrimArray { class, .. }) => *class,
                Some(LocalType::ObjArray { .. } | LocalType::MdArray { .. }) => {
                    return Err(CoreError::Serialization(
                        "nested array element classes are unsupported".into(),
                    ))
                }
                None => {
                    return Err(CoreError::Serialization(format!(
                        "bad elem type index {elem_type}"
                    )))
                }
            };
            if let LocalType::ObjArray { class, .. } = &mut types[i] {
                *class = self.thread.obj_array_class(elem_class);
            }
        }
        Ok(types)
    }
}

/// One type-table entry resolved to the receiver's class.
enum LocalType {
    Class {
        class: ClassId,
        /// Per field: its primitive kind, or `None` for a reference.
        fields: Vec<Option<ElemKind>>,
        /// Heap bytes of one instance.
        size: usize,
    },
    PrimArray {
        class: ClassId,
        kind: ElemKind,
    },
    ObjArray {
        class: ClassId,
        elem_type: usize,
    },
    MdArray {
        class: ClassId,
        elem: ElemKind,
        rank: u8,
    },
}

/// An md-array record's `[u8 rank][u32 dims...]` prefix.
fn read_md_dims(r: &mut Reader<'_>, rank: u8) -> CoreResult<Vec<u32>> {
    if r.u8()? != rank {
        return Err(CoreError::Serialization("md rank mismatch".into()));
    }
    (0..rank).map(|_| r.u32()).collect()
}

enum RangeRoot {
    Objects { elem: u32, elems: Vec<usize> },
    Prims { kind: ElemKind, data: Vec<u8> },
}

#[cfg(test)]
mod tests {
    use super::*;
    use motor_runtime::{Vm, VmConfig};
    use std::sync::Arc;

    struct Fixture {
        vm: Arc<Vm>,
        node: ClassId,
        arr_i32: ClassId,
    }

    /// The paper's `LinkedArray` shape (Figure 5): a transportable i32
    /// array, a transportable `next`, and a *non*-transportable `next2`.
    fn fixture() -> Fixture {
        let vm = Vm::new(VmConfig::default());
        let (node, arr_i32) = {
            let mut reg = vm.registry_mut();
            let arr = reg.prim_array(ElemKind::I32);
            // Self-reference: register a placeholder first is unnecessary —
            // the builder accepts any ClassId, and `LinkedArray`'s id is
            // deterministic (next id in sequence).
            let next_id = ClassId(reg.len() as u32);
            let node = reg
                .define_class("LinkedArray")
                .prim("tag", ElemKind::I32)
                .transportable("array", arr)
                .transportable("next", next_id)
                .reference("next2", next_id)
                .build();
            assert_eq!(node, next_id, "self-referential id prediction");
            (node, arr)
        };
        Fixture { vm, node, arr_i32 }
    }

    fn build_list(t: &MotorThread, f: &Fixture, n: usize, payload_per_node: usize) -> Handle {
        let (ftag, farr, fnext) = (
            t.field_index(f.node, "tag"),
            t.field_index(f.node, "array"),
            t.field_index(f.node, "next"),
        );
        let mut head = t.null_handle();
        for i in (0..n).rev() {
            let node = t.alloc_instance(f.node);
            t.set_prim::<i32>(node, ftag, i as i32);
            let arr = t.alloc_prim_array(ElemKind::I32, payload_per_node);
            let data: Vec<i32> = (0..payload_per_node)
                .map(|j| (i * 1000 + j) as i32)
                .collect();
            t.prim_write(arr, 0, &data);
            t.set_ref(node, farr, arr);
            t.set_ref(node, fnext, head);
            t.release(arr);
            t.release(head);
            head = node;
        }
        head
    }

    fn check_list(t: &MotorThread, f: &Fixture, head: Handle, n: usize, payload: usize) {
        let (ftag, farr, fnext) = (
            t.field_index(f.node, "tag"),
            t.field_index(f.node, "array"),
            t.field_index(f.node, "next"),
        );
        let mut cur = t.clone_handle(head);
        for i in 0..n {
            assert!(!t.is_null(cur), "list too short at {i}");
            assert_eq!(t.get_prim::<i32>(cur, ftag), i as i32);
            let arr = t.get_ref(cur, farr);
            let mut buf = vec![0i32; payload];
            t.prim_read(arr, 0, &mut buf);
            for (j, &v) in buf.iter().enumerate() {
                assert_eq!(v, (i * 1000 + j) as i32);
            }
            t.release(arr);
            let next = t.get_ref(cur, fnext);
            t.release(cur);
            cur = next;
        }
        assert!(t.is_null(cur), "list too long");
        t.release(cur);
    }

    #[test]
    fn linked_list_roundtrip() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let head = build_list(&t, &f, 10, 8);
        let ser = Serializer::new(&t);
        let (buf, stats) = ser.serialize(head).unwrap();
        // 10 nodes + 10 arrays.
        assert_eq!(stats.objects, 20);
        let copy = ser.deserialize(&buf).unwrap();
        check_list(&t, &f, copy, 10, 8);
    }

    #[test]
    fn non_transportable_refs_become_null() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let (fnext2, ftag) = (t.field_index(f.node, "next2"), t.field_index(f.node, "tag"));
        let a = t.alloc_instance(f.node);
        let b = t.alloc_instance(f.node);
        t.set_prim::<i32>(a, ftag, 1);
        t.set_ref(a, fnext2, b); // NOT transportable
        let ser = Serializer::new(&t);
        let (buf, stats) = ser.serialize(a).unwrap();
        assert_eq!(stats.objects, 1, "next2 must not be propagated");
        let copy = ser.deserialize(&buf).unwrap();
        let n2 = t.get_ref(copy, fnext2);
        assert!(t.is_null(n2), "non-transportable reference arrives as null");
    }

    #[test]
    fn shared_references_are_preserved() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let (farr, fnext) = (
            t.field_index(f.node, "array"),
            t.field_index(f.node, "next"),
        );
        // Two nodes sharing one array.
        let shared = t.alloc_prim_array(ElemKind::I32, 4);
        t.prim_write(shared, 0, &[9i32, 8, 7, 6]);
        let a = t.alloc_instance(f.node);
        let b = t.alloc_instance(f.node);
        t.set_ref(a, farr, shared);
        t.set_ref(b, farr, shared);
        t.set_ref(a, fnext, b);
        let ser = Serializer::new(&t);
        let (buf, stats) = ser.serialize(a).unwrap();
        assert_eq!(stats.objects, 3, "shared array serialized once");
        let copy = ser.deserialize(&buf).unwrap();
        let ca = t.get_ref(copy, farr);
        let cb_node = t.get_ref(copy, fnext);
        let cb = t.get_ref(cb_node, farr);
        assert!(t.same_object(ca, cb), "sharing preserved on the receiver");
    }

    #[test]
    fn cycles_terminate_and_roundtrip() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let fnext = t.field_index(f.node, "next");
        let a = t.alloc_instance(f.node);
        let b = t.alloc_instance(f.node);
        t.set_ref(a, fnext, b);
        t.set_ref(b, fnext, a); // cycle
        let ser = Serializer::new(&t);
        let (buf, stats) = ser.serialize(a).unwrap();
        assert_eq!(stats.objects, 2);
        let copy = ser.deserialize(&buf).unwrap();
        let cb = t.get_ref(copy, fnext);
        let back = t.get_ref(cb, fnext);
        assert!(t.same_object(copy, back), "cycle reconstructed");
    }

    #[test]
    fn object_array_roundtrip_with_null_slots() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let ftag = t.field_index(f.node, "tag");
        let arr = t.alloc_obj_array(f.node, 4);
        for i in [0usize, 2] {
            let n = t.alloc_instance(f.node);
            t.set_prim::<i32>(n, ftag, i as i32 * 11);
            t.obj_array_set(arr, i, n);
            t.release(n);
        }
        let ser = Serializer::new(&t);
        let (buf, _) = ser.serialize(arr).unwrap();
        let copy = ser.deserialize(&buf).unwrap();
        assert_eq!(t.array_len(copy), 4);
        for i in 0..4usize {
            let e = t.obj_array_get(copy, i);
            if i % 2 == 0 {
                assert_eq!(t.get_prim::<i32>(e, ftag), i as i32 * 11);
            } else {
                assert!(t.is_null(e));
            }
            t.release(e);
        }
    }

    #[test]
    fn md_array_roundtrip() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let md = t.alloc_md_array(ElemKind::F64, &[3, 4]);
        t.md_set::<f64>(md, &[2, 1], 6.5);
        t.md_set::<f64>(md, &[0, 3], -1.25);
        let ser = Serializer::new(&t);
        let (buf, _) = ser.serialize(md).unwrap();
        let copy = ser.deserialize(&buf).unwrap();
        assert_eq!(t.md_dims(copy), vec![3, 4]);
        assert_eq!(t.md_get::<f64>(copy, &[2, 1]), 6.5);
        assert_eq!(t.md_get::<f64>(copy, &[0, 3]), -1.25);
        assert_eq!(t.md_get::<f64>(copy, &[1, 1]), 0.0);
    }

    #[test]
    fn split_representation_scatters_object_arrays() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let ftag = t.field_index(f.node, "tag");
        let arr = t.alloc_obj_array(f.node, 6);
        for i in 0..6usize {
            let n = t.alloc_instance(f.node);
            t.set_prim::<i32>(n, ftag, i as i32);
            t.obj_array_set(arr, i, n);
            t.release(n);
        }
        let ser = Serializer::new(&t);
        // Split into 3 independently deserializable parts of 2.
        for part in 0..3usize {
            let (buf, stats) = ser.serialize_array_range(arr, part * 2, 2).unwrap();
            assert_eq!(stats.objects, 3, "synthetic root + 2 elements");
            let sub = ser.deserialize(&buf).unwrap();
            assert_eq!(t.array_len(sub), 2);
            for j in 0..2usize {
                let e = t.obj_array_get(sub, j);
                assert_eq!(t.get_prim::<i32>(e, ftag), (part * 2 + j) as i32);
                t.release(e);
            }
            t.release(sub);
        }
    }

    #[test]
    fn split_representation_on_prim_arrays() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let arr = t.alloc_prim_array(ElemKind::I32, 10);
        let data: Vec<i32> = (0..10).collect();
        t.prim_write(arr, 0, &data);
        let ser = Serializer::new(&t);
        let (buf, _) = ser.serialize_array_range(arr, 4, 3).unwrap();
        let sub = ser.deserialize(&buf).unwrap();
        assert_eq!(t.array_len(sub), 3);
        let mut got = vec![0i32; 3];
        t.prim_read(sub, 0, &mut got);
        assert_eq!(got, vec![4, 5, 6]);
    }

    #[test]
    fn linear_visited_probes_quadratically_vs_hashed() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let head = build_list(&t, &f, 200, 2);
        let lin = Serializer::new(&t).with_strategy(VisitedStrategy::Linear);
        let hash = Serializer::new(&t).with_strategy(VisitedStrategy::Hashed);
        let (_, s_lin) = lin.serialize(head).unwrap();
        let (_, s_hash) = hash.serialize(head).unwrap();
        assert_eq!(s_lin.objects, s_hash.objects);
        assert!(
            s_lin.visited_probes > 20 * s_hash.visited_probes,
            "linear {} vs hashed {}",
            s_lin.visited_probes,
            s_hash.visited_probes
        );
    }

    #[test]
    fn reflection_attr_lookup_is_equivalent_but_slow_path() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let head = build_list(&t, &f, 10, 4);
        let fast = Serializer::new(&t);
        let slow = Serializer::new(&t).with_attr_lookup(AttrLookup::Reflection);
        let (a, _) = fast.serialize(head).unwrap();
        let (b, _) = slow.serialize(head).unwrap();
        assert_eq!(a, b, "both lookup paths produce identical bytes");
    }

    #[test]
    fn unknown_type_is_reported() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let head = build_list(&t, &f, 1, 1);
        let (buf, _) = Serializer::new(&t).serialize(head).unwrap();
        // A VM that never registered LinkedArray cannot deserialize.
        let other = Vm::new(VmConfig::default());
        let t2 = MotorThread::attach(other);
        let ser2 = Serializer::new(&t2);
        assert!(
            matches!(ser2.deserialize(&buf), Err(CoreError::UnknownType(n)) if n == "LinkedArray")
        );
    }

    #[test]
    fn truncated_buffers_are_rejected() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let head = build_list(&t, &f, 3, 4);
        let (buf, _) = Serializer::new(&t).serialize(head).unwrap();
        let ser = Serializer::new(&t);
        for cut in [1usize, buf.len() / 2, buf.len() - 1] {
            assert!(
                ser.deserialize(&buf[..cut]).is_err(),
                "cut at {cut} must not deserialize"
            );
        }
    }

    fn small_young_vm() -> Fixture {
        // 4 KiB young generation: graphs above 2 KiB go to the elder one.
        let vm = Vm::new(VmConfig {
            heap: motor_runtime::heap::HeapConfig {
                young_bytes: 4096,
                ..Default::default()
            },
            ..Default::default()
        });
        let (node, arr_i32) = {
            let mut reg = vm.registry_mut();
            let arr = reg.prim_array(ElemKind::I32);
            let next_id = ClassId(reg.len() as u32);
            let node = reg
                .define_class("LinkedArray")
                .prim("tag", ElemKind::I32)
                .transportable("array", arr)
                .transportable("next", next_id)
                .reference("next2", next_id)
                .build();
            (node, arr)
        };
        Fixture { vm, node, arr_i32 }
    }

    /// The collection a full young generation needs runs before the graph
    /// is reserved, so it promotes none of the graph; the graph is intact,
    /// and stays intact through collections forced right after.
    #[test]
    fn deserialization_survives_gc_pressure() {
        let f = small_young_vm();
        let vm = &f.vm;
        let t = MotorThread::attach(Arc::clone(vm));
        let head = build_list(&t, &f, 8, 16);
        let ser = Serializer::new(&t);
        let (buf, _) = ser.serialize(head).unwrap();
        // Promote the source list, then fill the young generation with
        // garbage so the graph cannot fit without a collection.
        t.collect_minor();
        for _ in 0..15 {
            let g = t.alloc_prim_array(ElemKind::U8, 256);
            t.release(g);
        }
        let before = vm.stats_snapshot();
        let copy = ser.deserialize(&buf).unwrap();
        let after = vm.stats_snapshot();
        assert_eq!(after.minor_collections, before.minor_collections + 1);
        assert_eq!(after.bytes_promoted, before.bytes_promoted);
        assert!(t.is_young(copy));
        check_list(&t, &f, copy, 8, 16);
        t.collect_minor();
        check_list(&t, &f, copy, 8, 16);
        t.collect_full();
        check_list(&t, &f, copy, 8, 16);
        motor_runtime::verify_heap(vm).unwrap();
        assert_eq!(f.arr_i32, t.array_class(ElemKind::I32));
    }

    #[test]
    fn graph_larger_than_the_young_generation_deserializes_intact() {
        let f = small_young_vm();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let head = build_list(&t, &f, 100, 16);
        let ser = Serializer::new(&t);
        let (buf, _) = ser.serialize(head).unwrap();
        let copy = ser.deserialize(&buf).unwrap();
        assert!(
            !t.is_young(copy),
            "placed in the elder generation in one piece"
        );
        check_list(&t, &f, copy, 100, 16);
        motor_runtime::verify_heap(&f.vm).unwrap();
        t.collect_full();
        check_list(&t, &f, copy, 100, 16);
        motor_runtime::verify_heap(&f.vm).unwrap();
    }

    #[test]
    fn default_visited_probes_equal_reference_lookups() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        // A list: the root plus one lookup per array and per non-null next.
        let head = build_list(&t, &f, 50, 2);
        let (_, s) = Serializer::new(&t).serialize(head).unwrap();
        assert_eq!(s.visited_probes, 1 + 50 + 49);
        assert_eq!(s.visited_probes, s.objects as u64);
        // Two nodes sharing an array: four lookups find three objects.
        let (farr, fnext) = (
            t.field_index(f.node, "array"),
            t.field_index(f.node, "next"),
        );
        let shared = t.alloc_prim_array(ElemKind::I32, 1);
        let a = t.alloc_instance(f.node);
        let b = t.alloc_instance(f.node);
        t.set_ref(a, farr, shared);
        t.set_ref(b, farr, shared);
        t.set_ref(a, fnext, b);
        let (_, s) = Serializer::new(&t).serialize(a).unwrap();
        assert_eq!((s.visited_probes, s.objects), (4, 3));
    }

    /// Hostile counts fail before anything is allocated from them.
    #[test]
    fn hostile_counts_are_rejected_without_allocating() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let ser = Serializer::new(&t);
        let heap_state = || {
            let st = f.vm.state();
            (st.heap.usage(), st.handles.live())
        };
        let before = heap_state();
        // A type count of 2^31 - 1 with nothing behind it.
        assert!(ser.deserialize(&[0xff, 0xff, 0xff, 0x7f]).is_err());
        // An empty type table, then u32::MAX records.
        assert!(ser
            .deserialize(&[0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff])
            .is_err());
        // One record of an i32 array claiming u32::MAX elements.
        let mut b = vec![
            1,
            0,
            0,
            0,
            TT_PRIM_ARRAY,
            ElemKind::I32.tag(),
            1,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
        ];
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(ser.deserialize(&b).is_err());
        // One record of an object array claiming u32::MAX elements.
        let mut b = vec![1, 0, 0, 0, TT_OBJ_ARRAY, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0];
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(ser.deserialize(&b).is_err());
        assert_eq!(heap_state(), before);
    }

    #[test]
    fn overflowing_md_dims_product_is_rejected() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let before = f.vm.state().heap.usage();
        let mut b = vec![1, 0, 0, 0, TT_MD_ARRAY, ElemKind::F64.tag(), 4];
        b.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0, 4]);
        for _ in 0..4 {
            b.extend_from_slice(&u32::MAX.to_le_bytes());
        }
        let r = Serializer::new(&t).deserialize(&b);
        assert!(
            matches!(&r, Err(CoreError::Serialization(m)) if m.contains("overflow")),
            "{r:?}"
        );
        assert_eq!(f.vm.state().heap.usage(), before);
    }

    /// A reference to a record that does not exist fails the pass and
    /// leaves the heap parseable.
    #[test]
    fn dangling_object_index_is_rejected() {
        let f = fixture();
        let t = MotorThread::attach(Arc::clone(&f.vm));
        let head = build_list(&t, &f, 1, 1);
        let ser = Serializer::new(&t);
        let (mut buf, _) = ser.serialize(head).unwrap();
        // The list is record 0 (type, tag, array, next, next2: 20 bytes)
        // then record 1 (type, len, one i32: 12 bytes). Record 0's `array`
        // names record 1; point it past the end.
        let at = buf.len() - 12 - 20 + 8;
        assert_eq!(&buf[at..at + 4], &1u32.to_le_bytes());
        buf[at..at + 4].copy_from_slice(&7u32.to_le_bytes());
        assert!(ser.deserialize(&buf).is_err());
        motor_runtime::verify_heap(&f.vm).unwrap();
    }
}
