//! Compile-time split-representation wire codec.
//!
//! This module speaks **exactly** the representation produced by the
//! reflective managed serializer (`motor-core::serial`, paper §7.5):
//!
//! ```text
//! [u32 type_count][type entries...][u32 record_count][records...]
//! ```
//!
//! but where the managed path walks class metadata per record at run time,
//! here `#[derive(Transportable)]` bakes the traversal into straight-line
//! `write_fields`/`read_fields` bodies.  The derive monomorphizes down to
//! the same byte sequence the reflective path emits — asserted by the
//! byte-identity tests in `tests/derive_roundtrip.rs` — so a native rank
//! using this codec interoperates with managed ranks using `Oomp`.
//!
//! Two deliberate semantic restrictions relative to the managed graph
//! walker, both consequences of modelling objects as *owned* Rust values:
//!
//! * **Trees, not DAGs.** Owned `Box`/`Vec` fields cannot alias, so the
//!   encoder never consults a visited structure; each reachable value
//!   becomes its own record, exactly as the managed serializer does for an
//!   unaliased graph.  Decoding a representation in which records *are*
//!   shared materializes one copy per referencing field; cycles are
//!   detected and rejected.
//! * **No managed handles.** The codec reads and writes plain byte
//!   buffers; pinning and GC interactions stay in `motor-core`.

use crate::error::{Error, Result};
use crate::Transportable;

pub(crate) const TT_CLASS: u8 = 0;
pub(crate) const TT_PRIM_ARRAY: u8 = 1;
pub(crate) const TT_OBJ_ARRAY: u8 = 2;
pub(crate) const TT_MD_ARRAY: u8 = 3;
pub(crate) const NULL_REF: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// primitives
// ---------------------------------------------------------------------------

/// A Rust primitive with a managed `ElemKind` wire identity.
///
/// `TAG` values mirror `motor_runtime::ElemKind::tag` (`char` — managed
/// UTF-16 code unit — has no safe Rust mirror and is intentionally absent).
pub trait WirePrim: Copy + Default + PartialEq + std::fmt::Debug + 'static {
    /// The managed `ElemKind` tag.
    const TAG: u8;
    /// Wire size in bytes.
    const SIZE: usize;
    /// Append the little-endian representation.
    fn write_le(self, out: &mut Vec<u8>);
    /// Read from exactly `SIZE` little-endian bytes.
    fn read_le(b: &[u8]) -> Self;
}

macro_rules! wire_prim {
    ($($t:ty => $tag:expr),* $(,)?) => {$(
        impl WirePrim for $t {
            const TAG: u8 = $tag;
            const SIZE: usize = std::mem::size_of::<$t>();
            fn write_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read_le(b: &[u8]) -> Self {
                <$t>::from_le_bytes(b.try_into().expect("sized read"))
            }
        }
    )*};
}

wire_prim! {
    u8 => 1, i8 => 2, i16 => 3, u16 => 4, i32 => 6,
    u32 => 7, i64 => 8, u64 => 9, f32 => 10, f64 => 11,
}

impl WirePrim for bool {
    const TAG: u8 = 0;
    const SIZE: usize = 1;
    fn write_le(self, out: &mut Vec<u8>) {
        out.push(self as u8);
    }
    fn read_le(b: &[u8]) -> Self {
        b[0] != 0
    }
}

/// Wire size of an `ElemKind` tag (mirrors `ElemKind::size`).
fn tag_size(tag: u8) -> Result<usize> {
    Ok(match tag {
        0..=2 => 1,      // bool, u8, i8
        3..=5 => 2,      // i16, u16, char
        6 | 7 | 10 => 4, // i32, u32, f32
        8 | 9 | 11 => 8, // i64, u64, f64
        t => return Err(Error::Decode(format!("unknown element tag {t}"))),
    })
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

// -- type-entry builders used by derive-generated `type_entry` bodies ------

/// Begin a class type entry: kind byte, name, field count.
pub fn class_entry_header(out: &mut Vec<u8>, name: &str, nfields: u16) {
    out.push(TT_CLASS);
    put_str(out, name);
    put_u16(out, nfields);
}

/// Append a primitive field declaration.
pub fn prim_field<P: WirePrim>(out: &mut Vec<u8>, name: &str) {
    out.push(0);
    out.push(P::TAG);
    put_str(out, name);
}

/// Append a reference field declaration with its Transportable bit.
pub fn ref_field(out: &mut Vec<u8>, name: &str, transportable: bool) {
    out.push(1);
    out.push(transportable as u8);
    put_str(out, name);
}

// ---------------------------------------------------------------------------
// encoding
// ---------------------------------------------------------------------------

/// Identity of a type entry for interning.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TypeKey {
    /// A class, identified by its managed type name.
    Class(&'static str),
    /// A primitive array, identified by its element tag.
    PrimArray(u8),
}

/// One serializable value in the object graph.  Implemented by
/// `#[derive(Transportable)]` for structs and blanket-implemented for
/// `Vec<P>` (primitive array records).  Object-safe: the [`Encoder`] holds
/// the discovery worklist as `&dyn Node`.
pub trait Node {
    /// Stable address of this value for the duration of encoding (used
    /// only for diagnostics; owned values cannot alias).
    fn addr(&self) -> usize;
    /// Interning key for this value's type entry.
    fn type_key(&self) -> TypeKey;
    /// Append the complete type-table entry.
    fn type_entry(&self, out: &mut Vec<u8>);
    /// Append this value's record payload (after the driver has written
    /// the type index), discovering referenced nodes into `enc`.
    fn write_record<'a>(&'a self, enc: &mut Encoder<'a>);
}

impl<P: WirePrim> Node for Vec<P> {
    fn addr(&self) -> usize {
        self.as_ptr() as usize
    }
    fn type_key(&self) -> TypeKey {
        TypeKey::PrimArray(P::TAG)
    }
    fn type_entry(&self, out: &mut Vec<u8>) {
        out.push(TT_PRIM_ARRAY);
        out.push(P::TAG);
    }
    fn write_record<'a>(&'a self, enc: &mut Encoder<'a>) {
        enc.put_prim(self.len() as u32);
        for &v in self {
            enc.put_prim(v);
        }
    }
}

/// Streaming encoder for the split representation.
///
/// Mirrors `serial.rs::serialize_addrs`: breadth-first discovery order,
/// types interned at record-emission time, the synthetic split root (when
/// present) as record 0 with element indices offset by one.
pub struct Encoder<'a> {
    nodes: Vec<&'a dyn Node>,
    emitted: usize,
    index_offset: u32,
    type_keys: Vec<Option<TypeKey>>,
    type_entries: Vec<Vec<u8>>,
    obj_data: Vec<u8>,
    records: u32,
}

impl<'a> Encoder<'a> {
    fn new(index_offset: u32) -> Encoder<'a> {
        Encoder {
            nodes: Vec::new(),
            emitted: 0,
            index_offset,
            type_keys: Vec::new(),
            type_entries: Vec::new(),
            obj_data: Vec::new(),
            records: 0,
        }
    }

    /// Assign the next discovery index to `node` and queue it for emission.
    fn discover(&mut self, node: &'a dyn Node) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(node);
        idx
    }

    /// Intern a type entry by key, filling it with `fill` on first use.
    fn intern_with(&mut self, key: TypeKey, fill: impl FnOnce(&mut Vec<u8>)) -> u32 {
        for (i, k) in self.type_keys.iter().enumerate() {
            if *k == Some(key) {
                return i as u32;
            }
        }
        let idx = self.type_entries.len() as u32;
        let mut e = Vec::new();
        fill(&mut e);
        self.type_keys.push(Some(key));
        self.type_entries.push(e);
        idx
    }

    /// Emit queued records in discovery order (the list grows as record
    /// payloads discover further references — breadth-first, exactly like
    /// the managed emission loop).
    fn run(&mut self) {
        while self.emitted < self.nodes.len() {
            let node = self.nodes[self.emitted];
            self.emitted += 1;
            self.records += 1;
            let tidx = self.intern_with(node.type_key(), |e| node.type_entry(e));
            put_u32(&mut self.obj_data, tidx);
            node.write_record(self);
        }
    }

    fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.obj_data.len() + 64);
        put_u32(&mut out, self.type_entries.len() as u32);
        for e in &self.type_entries {
            out.extend_from_slice(e);
        }
        put_u32(&mut out, self.records);
        out.extend_from_slice(&self.obj_data);
        out
    }

    // -- field writers invoked by derive-generated `write_fields` ----------

    /// Write an inline primitive value.
    pub fn put_prim<P: WirePrim>(&mut self, v: P) {
        v.write_le(&mut self.obj_data);
    }

    /// Write a reference to a primitive array, queuing its record.
    pub fn put_prim_array<P: WirePrim>(&mut self, v: &'a Vec<P>) {
        let idx = self.discover(v);
        put_u32(&mut self.obj_data, idx + self.index_offset);
    }

    /// Write a nullable reference to a primitive array.
    pub fn put_opt_prim_array<P: WirePrim>(&mut self, v: &'a Option<Vec<P>>) {
        match v {
            None => put_u32(&mut self.obj_data, NULL_REF),
            Some(a) => self.put_prim_array(a),
        }
    }

    /// Write a nullable reference to a nested transportable object.
    pub fn put_class_ref<T: Node>(&mut self, v: &'a Option<Box<T>>) {
        match v {
            None => put_u32(&mut self.obj_data, NULL_REF),
            Some(b) => {
                let idx = self.discover(&**b);
                put_u32(&mut self.obj_data, idx + self.index_offset);
            }
        }
    }

    /// Write the always-null reference of a non-transportable field
    /// ("references are replaced with null", §4.2.2).
    pub fn put_null_ref(&mut self) {
        put_u32(&mut self.obj_data, NULL_REF);
    }
}

/// Encode one transportable object graph — the byte-for-byte equivalent of
/// `Serializer::serialize` over the mirrored managed class.
pub fn encode<T: Transportable>(root: &T) -> Vec<u8> {
    let mut enc = Encoder::new(0);
    enc.discover(root);
    enc.run();
    enc.finish()
}

/// Encode a slice of transportable objects as a *split representation*:
/// a synthetic object-array root (record 0) over the elements, exactly as
/// `Serializer::serialize_array_range` emits one scatter/gather part.
pub fn encode_slice<T: Transportable>(items: &[T]) -> Vec<u8> {
    let mut enc = Encoder::new(1);
    // The element class is interned (and thus keyed) first; the synthetic
    // object-array entry is appended un-keyed, mirroring the managed path.
    let elem_idx = enc.intern_with(TypeKey::Class(T::TYPE_NAME), |e| {
        <T as Transportable>::type_entry(e)
    });
    let tidx = enc.type_entries.len() as u32;
    let mut e = Vec::new();
    e.push(TT_OBJ_ARRAY);
    put_u32(&mut e, elem_idx);
    enc.type_keys.push(None);
    enc.type_entries.push(e);
    enc.records += 1;
    put_u32(&mut enc.obj_data, tidx);
    put_u32(&mut enc.obj_data, items.len() as u32);
    for it in items {
        let idx = enc.discover(it);
        put_u32(&mut enc.obj_data, idx + 1);
    }
    enc.run();
    enc.finish()
}

/// Encode a primitive slice as a split-representation part (the
/// `RangeRoot::Prims` form used when scattering primitive arrays).
pub fn encode_prim_slice<P: WirePrim>(data: &[P]) -> Vec<u8> {
    let mut enc = Encoder::new(1);
    enc.type_keys.push(None);
    enc.type_entries.push(vec![TT_PRIM_ARRAY, P::TAG]);
    enc.records += 1;
    put_u32(&mut enc.obj_data, 0);
    put_u32(&mut enc.obj_data, data.len() as u32);
    for &v in data {
        v.write_le(&mut enc.obj_data);
    }
    enc.finish()
}

// ---------------------------------------------------------------------------
// decoding
// ---------------------------------------------------------------------------

struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.b.len() {
            return Err(Error::Decode(format!(
                "truncated representation at byte {} (+{n})",
                self.pos
            )));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// A wire count of items at least `min_bytes` long each, bounded by
    /// the bytes left so no count can allocate beyond the input's size.
    fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > (self.b.len() - self.pos) / min_bytes {
            return Err(Error::Decode(format!(
                "count {n} at byte {} exceeds the bytes left",
                self.pos - 4
            )));
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<&'a str> {
        let n = self.u16()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| Error::Decode("non-UTF8 type name".into()))
    }
}

#[derive(Debug)]
struct WField<'a> {
    name: &'a str,
    /// `Some(tag)` for a primitive field, `None` for a reference.
    prim: Option<u8>,
}

#[derive(Debug)]
enum WType<'a> {
    Class {
        name: &'a str,
        fields: Vec<WField<'a>>,
    },
    PrimArray(u8),
    ObjArray,
    MdArray,
}

#[derive(Debug)]
enum WVal<'a> {
    Prim(&'a [u8]),
    Ref(u32),
}

#[derive(Debug)]
enum WRecord<'a> {
    Class { t: u32, vals: Vec<WVal<'a>> },
    PrimArray { elem: u8, data: &'a [u8] },
    ObjArray { elems: Vec<u32> },
}

/// A parsed representation: type table plus records, still borrowing the
/// incoming byte buffer (payloads are zero-copy slices).
pub struct Doc<'a> {
    types: Vec<WType<'a>>,
    records: Vec<WRecord<'a>>,
}

impl<'a> Doc<'a> {
    /// Parse the three-section representation.
    pub fn parse(bytes: &'a [u8]) -> Result<Doc<'a>> {
        let mut r = Reader { b: bytes, pos: 0 };
        // Every type entry is at least a kind byte and one more byte.
        let ntypes = r.count(2)?;
        let mut types = Vec::with_capacity(ntypes);
        for _ in 0..ntypes {
            types.push(match r.u8()? {
                TT_CLASS => {
                    let name = r.str()?;
                    let nfields = r.u16()? as usize;
                    let mut fields = Vec::with_capacity(nfields);
                    for _ in 0..nfields {
                        let kind = r.u8()?;
                        let second = r.u8()?;
                        let name = r.str()?;
                        fields.push(WField {
                            name,
                            prim: if kind == 0 { Some(second) } else { None },
                        });
                    }
                    WType::Class { name, fields }
                }
                TT_PRIM_ARRAY => WType::PrimArray(r.u8()?),
                TT_OBJ_ARRAY => {
                    let _elem = r.u32()?;
                    WType::ObjArray
                }
                TT_MD_ARRAY => {
                    let _elem = r.u8()?;
                    let _rank = r.u8()?;
                    WType::MdArray
                }
                t => return Err(Error::Decode(format!("unknown type-entry kind {t}"))),
            });
        }
        // Every record starts with its 4-byte type index.
        let nrecords = r.count(4)?;
        let mut records = Vec::with_capacity(nrecords);
        for _ in 0..nrecords {
            let t = r.u32()?;
            let ty = types
                .get(t as usize)
                .ok_or_else(|| Error::Decode(format!("record type index {t} out of range")))?;
            records.push(match ty {
                WType::Class { fields, .. } => {
                    let mut vals = Vec::with_capacity(fields.len());
                    for f in fields {
                        vals.push(match f.prim {
                            Some(tag) => WVal::Prim(r.take(tag_size(tag)?)?),
                            None => WVal::Ref(r.u32()?),
                        });
                    }
                    WRecord::Class { t, vals }
                }
                WType::PrimArray(tag) => {
                    let len = r.u32()? as usize;
                    WRecord::PrimArray {
                        elem: *tag,
                        data: r.take(len * tag_size(*tag)?)?,
                    }
                }
                WType::ObjArray => {
                    let len = r.count(4)?;
                    let mut elems = Vec::with_capacity(len);
                    for _ in 0..len {
                        elems.push(r.u32()?);
                    }
                    WRecord::ObjArray { elems }
                }
                WType::MdArray => {
                    // Md arrays are not representable as derive fields.
                    return Err(Error::Decode(
                        "multi-dimensional array records are not supported by the typed codec"
                            .into(),
                    ));
                }
            });
        }
        Ok(Doc { types, records })
    }
}

/// Check that a wire class entry structurally matches `T`'s layout: same
/// name, same field names in order, same primitive kinds.  The
/// Transportable bit is deliberately ignored, matching the managed
/// deserializer's layout verification.
fn verify_layout<T: Transportable>(ty: &WType<'_>) -> Result<()> {
    let WType::Class { name, fields } = ty else {
        return Err(Error::Decode(format!(
            "expected a class record for `{}`",
            T::TYPE_NAME
        )));
    };
    if *name != T::TYPE_NAME {
        return Err(Error::Decode(format!(
            "type mismatch: received `{name}`, expected `{}`",
            T::TYPE_NAME
        )));
    }
    let mut local = Vec::new();
    <T as Transportable>::type_entry(&mut local);
    let parsed = Doc::parse_entry(&local)?;
    let WType::Class {
        fields: lfields, ..
    } = &parsed
    else {
        unreachable!("derive emits class entries");
    };
    if fields.len() != lfields.len() {
        return Err(Error::Decode(format!(
            "layout mismatch for `{name}`: {} wire fields vs {} local",
            fields.len(),
            lfields.len()
        )));
    }
    for (wf, lf) in fields.iter().zip(lfields) {
        if wf.name != lf.name || wf.prim != lf.prim {
            return Err(Error::Decode(format!(
                "layout mismatch for `{name}` field `{}`",
                wf.name
            )));
        }
    }
    Ok(())
}

impl<'a> Doc<'a> {
    /// Parse a single type entry (used to introspect locally generated
    /// entries during layout verification).
    fn parse_entry(bytes: &'a [u8]) -> Result<WType<'a>> {
        let mut r = Reader { b: bytes, pos: 0 };
        match r.u8()? {
            TT_CLASS => {
                let name = r.str()?;
                let nfields = r.u16()? as usize;
                let mut fields = Vec::with_capacity(nfields);
                for _ in 0..nfields {
                    let kind = r.u8()?;
                    let second = r.u8()?;
                    let name = r.str()?;
                    fields.push(WField {
                        name,
                        prim: if kind == 0 { Some(second) } else { None },
                    });
                }
                Ok(WType::Class { name, fields })
            }
            t => Err(Error::Decode(format!("unexpected local entry kind {t}"))),
        }
    }
}

/// Reads one class record's field values in declaration order; handed to
/// derive-generated `read_fields` bodies.
pub struct FieldReader<'d, 'a> {
    doc: &'d Doc<'a>,
    vals: std::slice::Iter<'d, WVal<'a>>,
    in_progress: &'d mut [bool],
}

impl<'d, 'a> FieldReader<'d, 'a> {
    fn next_val(&mut self) -> Result<&'d WVal<'a>> {
        self.vals
            .next()
            .ok_or_else(|| Error::Decode("record has fewer fields than the local type".into()))
    }

    /// Read an inline primitive field.
    pub fn prim<P: WirePrim>(&mut self) -> Result<P> {
        match self.next_val()? {
            WVal::Prim(b) if b.len() == P::SIZE => Ok(P::read_le(b)),
            WVal::Prim(b) => Err(Error::Decode(format!(
                "primitive width mismatch: {} wire bytes vs {} local",
                b.len(),
                P::SIZE
            ))),
            WVal::Ref(_) => Err(Error::Decode("expected primitive, found reference".into())),
        }
    }

    fn reference(&mut self) -> Result<u32> {
        match self.next_val()? {
            WVal::Ref(i) => Ok(*i),
            WVal::Prim(_) => Err(Error::Decode("expected reference, found primitive".into())),
        }
    }

    fn prim_array_at<P: WirePrim>(&self, idx: u32) -> Result<Vec<P>> {
        match self.doc.records.get(idx as usize) {
            Some(WRecord::PrimArray { elem, data }) if *elem == P::TAG => {
                Ok(data.chunks_exact(P::SIZE).map(P::read_le).collect())
            }
            Some(WRecord::PrimArray { elem, .. }) => Err(Error::Decode(format!(
                "primitive array tag mismatch: wire {elem} vs local {}",
                P::TAG
            ))),
            Some(_) => Err(Error::Decode(
                "reference does not lead to a primitive array".into(),
            )),
            None => Err(Error::Decode(format!("dangling reference {idx}"))),
        }
    }

    /// Read a `Vec<P>` field; a NULL reference (sender had a null or
    /// non-transportable array) decodes as an empty vector.
    pub fn prim_array<P: WirePrim>(&mut self) -> Result<Vec<P>> {
        match self.reference()? {
            NULL_REF => Ok(Vec::new()),
            idx => self.prim_array_at(idx),
        }
    }

    /// Read an `Option<Vec<P>>` field; NULL decodes as `None`.
    pub fn opt_prim_array<P: WirePrim>(&mut self) -> Result<Option<Vec<P>>> {
        match self.reference()? {
            NULL_REF => Ok(None),
            idx => Ok(Some(self.prim_array_at(idx)?)),
        }
    }

    /// Read an `Option<Box<T>>` field, recursively decoding the nested
    /// class record.
    pub fn class_ref<T: Transportable>(&mut self) -> Result<Option<Box<T>>> {
        match self.reference()? {
            NULL_REF => Ok(None),
            idx => Ok(Some(Box::new(read_class::<T>(
                self.doc,
                idx,
                self.in_progress,
            )?))),
        }
    }

    /// Consume a reference field the local type does not transport; the
    /// wire value (NULL or not) is discarded and the field defaults.
    pub fn null_ref<D: Default>(&mut self) -> Result<D> {
        self.reference()?;
        Ok(D::default())
    }
}

fn read_class<T: Transportable>(doc: &Doc<'_>, idx: u32, in_progress: &mut [bool]) -> Result<T> {
    let rec = doc
        .records
        .get(idx as usize)
        .ok_or_else(|| Error::Decode(format!("dangling reference {idx}")))?;
    let WRecord::Class { t, vals } = rec else {
        return Err(Error::Decode(format!(
            "record {idx} is not a class record (expected `{}`)",
            T::TYPE_NAME
        )));
    };
    if std::mem::replace(&mut in_progress[idx as usize], true) {
        return Err(Error::Decode(format!(
            "cyclic object graph at record {idx}: owned Rust values cannot represent cycles"
        )));
    }
    verify_layout::<T>(&doc.types[*t as usize])?;
    let mut r = FieldReader {
        doc,
        vals: vals.iter(),
        in_progress,
    };
    let v = T::read_fields(&mut r)?;
    in_progress[idx as usize] = false;
    Ok(v)
}

/// Decode one object graph rooted at record 0 — the inverse of [`encode`]
/// and of the managed `Serializer::serialize`.
pub fn decode<T: Transportable>(bytes: &[u8]) -> Result<T> {
    let doc = Doc::parse(bytes)?;
    if doc.records.is_empty() {
        return Err(Error::Decode("empty representation".into()));
    }
    let mut in_progress = vec![false; doc.records.len()];
    read_class::<T>(&doc, 0, &mut in_progress)
}

/// Decode a split representation (synthetic object-array root) into a
/// vector — the inverse of [`encode_slice`].
pub fn decode_vec<T: Transportable>(bytes: &[u8]) -> Result<Vec<T>> {
    let doc = Doc::parse(bytes)?;
    let Some(WRecord::ObjArray { elems }) = doc.records.first() else {
        return Err(Error::Decode("expected an object-array root record".into()));
    };
    let mut out = Vec::with_capacity(elems.len());
    let mut in_progress = vec![false; doc.records.len()];
    for &e in elems {
        if e == NULL_REF {
            return Err(Error::Decode(
                "null element in object array cannot decode into a by-value Vec".into(),
            ));
        }
        out.push(read_class::<T>(&doc, e, &mut in_progress)?);
    }
    Ok(out)
}

/// Decode a primitive-array split part — the inverse of
/// [`encode_prim_slice`].
pub fn decode_prim_vec<P: WirePrim>(bytes: &[u8]) -> Result<Vec<P>> {
    let doc = Doc::parse(bytes)?;
    match doc.records.first() {
        Some(WRecord::PrimArray { elem, data }) if *elem == P::TAG => {
            Ok(data.chunks_exact(P::SIZE).map(P::read_le).collect())
        }
        Some(WRecord::PrimArray { elem, .. }) => Err(Error::Decode(format!(
            "primitive array tag mismatch: wire {elem} vs local {}",
            P::TAG
        ))),
        _ => Err(Error::Decode(
            "expected a primitive-array root record".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A hand-written Transportable implementation (what the derive
    // generates), so the codec is testable without the proc macro.
    #[derive(Debug, Default, PartialEq)]
    struct Pair {
        tag: i32,
        data: Vec<f64>,
        next: Option<Box<Pair>>,
    }

    impl Transportable for Pair {
        const TYPE_NAME: &'static str = "Pair";
        fn type_entry(out: &mut Vec<u8>) {
            class_entry_header(out, "Pair", 3);
            prim_field::<i32>(out, "tag");
            ref_field(out, "data", true);
            ref_field(out, "next", true);
        }
        fn write_fields<'a>(&'a self, enc: &mut Encoder<'a>) {
            enc.put_prim(self.tag);
            enc.put_prim_array(&self.data);
            enc.put_class_ref(&self.next);
        }
        fn read_fields(r: &mut FieldReader<'_, '_>) -> Result<Self> {
            Ok(Pair {
                tag: r.prim()?,
                data: r.prim_array()?,
                next: r.class_ref()?,
            })
        }
    }

    impl Node for Pair {
        fn addr(&self) -> usize {
            self as *const Pair as usize
        }
        fn type_key(&self) -> TypeKey {
            TypeKey::Class("Pair")
        }
        fn type_entry(&self, out: &mut Vec<u8>) {
            <Pair as Transportable>::type_entry(out)
        }
        fn write_record<'a>(&'a self, enc: &mut Encoder<'a>) {
            <Pair as Transportable>::write_fields(self, enc)
        }
    }

    fn chain(depth: usize) -> Pair {
        let mut p = Pair {
            tag: depth as i32,
            data: vec![depth as f64; 3],
            next: None,
        };
        for d in (0..depth).rev() {
            p = Pair {
                tag: d as i32,
                data: vec![d as f64; 3],
                next: Some(Box::new(p)),
            };
        }
        p
    }

    #[test]
    fn roundtrip_tree() {
        let root = chain(4);
        let bytes = encode(&root);
        let back: Pair = decode(&bytes).unwrap();
        assert_eq!(back, root);
    }

    #[test]
    fn roundtrip_slice_split_representation() {
        let items: Vec<Pair> = (0..5).map(chain).collect();
        let bytes = encode_slice(&items);
        let back: Vec<Pair> = decode_vec(&bytes).unwrap();
        assert_eq!(back, items);
    }

    #[test]
    fn roundtrip_prim_split_part() {
        let data: Vec<i64> = (0..17).collect();
        let bytes = encode_prim_slice(&data);
        assert_eq!(decode_prim_vec::<i64>(&bytes).unwrap(), data);
        assert!(decode_prim_vec::<i32>(&bytes).is_err());
    }

    #[test]
    fn layout_mismatch_is_rejected() {
        #[derive(Debug, Default)]
        struct Wrong {
            #[allow(dead_code)]
            tag: i64, // wire has i32
        }
        impl Transportable for Wrong {
            const TYPE_NAME: &'static str = "Pair";
            fn type_entry(out: &mut Vec<u8>) {
                class_entry_header(out, "Pair", 1);
                prim_field::<i64>(out, "tag");
            }
            fn write_fields<'a>(&'a self, _enc: &mut Encoder<'a>) {}
            fn read_fields(r: &mut FieldReader<'_, '_>) -> Result<Self> {
                Ok(Wrong { tag: r.prim()? })
            }
        }
        impl Node for Wrong {
            fn addr(&self) -> usize {
                self as *const Wrong as usize
            }
            fn type_key(&self) -> TypeKey {
                TypeKey::Class("Pair")
            }
            fn type_entry(&self, out: &mut Vec<u8>) {
                <Wrong as Transportable>::type_entry(out)
            }
            fn write_record<'a>(&'a self, enc: &mut Encoder<'a>) {
                <Wrong as Transportable>::write_fields(self, enc)
            }
        }
        let bytes = encode(&chain(1));
        assert!(matches!(decode::<Wrong>(&bytes), Err(Error::Decode(_))));
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let bytes = encode(&chain(2));
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode::<Pair>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// Wire counts are untrusted: a count larger than the bytes left is a
    /// decode error, never an allocation sized by the attacker.
    #[test]
    fn oversized_wire_counts_are_rejected_before_allocating() {
        let huge = u32::MAX.to_le_bytes();
        // Type count.
        assert!(matches!(
            Doc::parse(&[0xff, 0xff, 0xff, 0x7f]),
            Err(Error::Decode(_))
        ));
        // Record count, after an empty type table.
        let records = [&0u32.to_le_bytes()[..], &huge].concat();
        assert!(matches!(Doc::parse(&records), Err(Error::Decode(_))));
        // Object-array length, in one record of a one-entry type table.
        let mut obj = 1u32.to_le_bytes().to_vec();
        obj.push(TT_OBJ_ARRAY);
        obj.extend_from_slice(&0u32.to_le_bytes());
        obj.extend_from_slice(&1u32.to_le_bytes());
        obj.extend_from_slice(&0u32.to_le_bytes());
        obj.extend_from_slice(&huge);
        assert!(matches!(Doc::parse(&obj), Err(Error::Decode(_))));
    }
}
