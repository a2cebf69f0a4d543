//! Flat binary arena snapshots: a serialized form that **is** the arena.
//!
//! The text formats rebuild a tree node by node: the term and XML
//! readers scan the text, intern every label and append each node to the
//! arena. This module instead freezes the arena representation itself —
//! slab, slot index, root — into a versioned little-endian byte image,
//! so loading is a single bounds-checked bulk decode: no text scanning,
//! no per-node label interning, no re-indexing.
//!
//! # Layout (format version 1)
//!
//! All integers are little-endian. One tree snapshot is:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "XVUS"
//! 4       2     format version (= 1)
//! 6       1     label-codec tag (= 1: interned syms + UTF-8 string table)
//! 7       1     reserved (= 0)
//! 8       8     node count N (≥ 1)
//! 16      8     child total C (= N - 1)
//! 24      8     root identifier
//! 32      8     label count L
//! 40      24·N  node records in slot order:
//!                 id u64 · parent u64 (u64::MAX = none) · label u32 · child count u32
//! …       8·C   child identifiers, concatenated in slot order
//! …       8     dense slot-table length D
//! …       4·D   dense slot table (u32; u32::MAX = vacant)
//! …       8     sparse entry count S
//! …       12·S  sparse entries (id u64 · slot u32), sorted by id
//! …       …     L label strings (len u32 · UTF-8 bytes), in Sym order
//! last    8     FNV-1a 64 checksum of every preceding byte
//! ```
//!
//! Slots are numbered densely: a tree whose removals left vacant slots
//! encodes as its compacted image — its live records in slot order, each
//! slot renumbered past the vacancies below it. The image of a tree
//! without vacancies is its arena verbatim.
//!
//! The child array is bulk-copied into the tree's child buffer and the
//! node records into the slab, each record naming its run of the buffer,
//! so decoding allocates per array, never per node; the slot table is
//! bulk-copied into the [`crate::SlotIndex`]; the decoded
//! tree is then checked with [`Tree::validate`] so corrupt bytes surface
//! as a typed [`SnapshotError`], never a panic. Every section length is
//! bounds-checked against the remaining input **before** any allocation,
//! so a forged header cannot OOM the decoder.
//!
//! # Corpus files
//!
//! [`SnapshotFile`] packs many snapshots into one file — a doc-id
//! directory followed by length-prefixed snapshot sections — loaded in
//! one read ([`SnapshotFile::open`]).

use crate::alphabet::{Alphabet, Sym};
use crate::node::{Node, NodeId};
use crate::slot::{Slot, SlotIndex};
use crate::tree::{DocTree, Tree};
use crate::TreeError;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// Magic bytes opening a single tree snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"XVUS";
/// Magic bytes opening a corpus file.
pub const CORPUS_MAGIC: [u8; 4] = *b"XVUC";
/// The snapshot format version this build reads and writes.
pub const SNAPSHOT_FORMAT_VERSION: u16 = 1;
/// Label codec 1: labels are interned [`Sym`]s plus a UTF-8 string table.
pub const LABEL_CODEC_INTERNED: u8 = 1;

const HEADER_LEN: usize = 40;
const NODE_RECORD_LEN: usize = 24;
const CORPUS_HEADER_LEN: usize = 16;
const CORPUS_DIR_ENTRY_LEN: usize = 28;
const NO_PARENT: u64 = u64::MAX;
const VACANT: u32 = u32::MAX;

/// A typed decoding/encoding failure. The decoder never panics and never
/// allocates more than the input length justifies; every malformed input
/// maps to one of these variants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ended before the declared structure did.
    Truncated {
        /// Bytes the current section needed.
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The magic bytes are not [`SNAPSHOT_MAGIC`] / [`CORPUS_MAGIC`].
    BadMagic([u8; 4]),
    /// The format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The label-codec tag is unknown.
    UnsupportedCodec(u8),
    /// The trailing checksum does not match the bytes.
    ChecksumMismatch {
        /// Checksum stored in the snapshot.
        stored: u64,
        /// Checksum recomputed over the input.
        actual: u64,
    },
    /// A declared count or length is impossible for the input size
    /// (allocation guard) or violates a structural invariant.
    Malformed(String),
    /// A slot-table entry points outside the arena.
    SlotOutOfRange {
        /// The offending slot value.
        slot: u32,
        /// Number of nodes in the arena.
        nodes: u64,
    },
    /// A node record names a label index outside the string table.
    LabelOutOfRange {
        /// The offending label index.
        label: u32,
        /// Number of strings in the table.
        labels: u64,
    },
    /// A label string is not valid UTF-8.
    BadUtf8,
    /// The decoded structure fails [`Tree::validate`] (cycles, dangling
    /// children, duplicate identifiers, index disagreement, …).
    Invalid(String),
    /// The tree cannot be encoded (e.g. a node identifier equal to
    /// `u64::MAX`, which collides with the no-parent sentinel).
    Unencodable(String),
    /// An underlying file operation failed.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { need, have } => {
                write!(f, "snapshot truncated: need {need} bytes, have {have}")
            }
            SnapshotError::BadMagic(m) => write!(f, "bad snapshot magic {m:?}"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::UnsupportedCodec(c) => write!(f, "unsupported label codec {c}"),
            SnapshotError::ChecksumMismatch { stored, actual } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
            ),
            SnapshotError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
            SnapshotError::SlotOutOfRange { slot, nodes } => {
                write!(f, "slot {slot} out of range for {nodes} nodes")
            }
            SnapshotError::LabelOutOfRange { label, labels } => {
                write!(f, "label index {label} out of range for {labels} labels")
            }
            SnapshotError::BadUtf8 => write!(f, "label table holds invalid UTF-8"),
            SnapshotError::Invalid(msg) => write!(f, "decoded tree is invalid: {msg}"),
            SnapshotError::Unencodable(msg) => write!(f, "tree cannot be encoded: {msg}"),
            SnapshotError::Io(msg) => write!(f, "snapshot i/o: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<TreeError> for SnapshotError {
    fn from(e: TreeError) -> SnapshotError {
        SnapshotError::Invalid(e.to_string())
    }
}

/// The integrity trailer: FNV-1a 64 folded over 8-byte little-endian
/// words (tail zero-padded, length mixed in last). Word folding keeps
/// the checksum a single-digit share of decode time at corpus scale,
/// where the classic byte-at-a-time formulation would dominate it.
fn fnv1a64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte word"))).wrapping_mul(PRIME);
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    }
    // the length breaks ties between inputs differing only in trailing
    // zero bytes, which the padded tail word cannot see
    (h ^ bytes.len() as u64).wrapping_mul(PRIME)
}

// ---------------------------------------------------------------- reader

/// A bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A count that must leave room for `unit` bytes per element: the
    /// allocation guard. Rejects counts whose encoded payload could not
    /// fit in the remaining input, so `Vec::with_capacity` downstream is
    /// always bounded by the input length.
    fn count(&mut self, unit: usize, what: &str) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let budget = (self.remaining() / unit.max(1)) as u64;
        if n > budget {
            return Err(SnapshotError::Malformed(format!(
                "{what} count {n} exceeds what {} remaining bytes can hold",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }
}

// ---------------------------------------------------------------- encode

fn encode_tree(tree: &DocTree, alpha: &Alphabet) -> Result<Vec<u8>, SnapshotError> {
    let n = tree.size();
    let mut max_label = 0usize;
    for slot in tree.slots() {
        let node = tree.node_at(slot);
        if node.id.0 == NO_PARENT {
            return Err(SnapshotError::Unencodable(format!(
                "identifier {} collides with the no-parent sentinel",
                node.id
            )));
        }
        max_label = max_label.max(node.label.index());
    }
    let labels = if n == 0 { 0 } else { max_label + 1 };
    if labels > alpha.len() {
        return Err(SnapshotError::Unencodable(format!(
            "label index {max_label} outside the alphabet ({} symbols)",
            alpha.len()
        )));
    }

    let mut out = Vec::with_capacity(HEADER_LEN + n * (NODE_RECORD_LEN + 8) + 64);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
    out.push(LABEL_CODEC_INTERNED);
    out.push(0);
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(n as u64 - 1).to_le_bytes());
    out.extend_from_slice(&tree.root().0.to_le_bytes());
    out.extend_from_slice(&(labels as u64).to_le_bytes());

    // A tree with vacant slots encodes as its compacted image: live
    // records in slot order, each slot renumbered past the vacancies
    // below it. Without vacancies the renumbering is the identity.
    let compact: Option<Vec<u32>> = (n != tree.slot_bound()).then(|| {
        let mut next = 0u32;
        (0..tree.slot_bound() as u32)
            .map(|i| {
                let at = next;
                next += u32::from(!tree.node_at(Slot::new(i)).is_vacant());
                at
            })
            .collect()
    });
    let renumber = |s: u32| compact.as_ref().map_or(s, |c| c[s as usize]);

    // node records in slot order
    for slot in tree.slots() {
        let node = tree.node_at(slot);
        out.extend_from_slice(&node.id.0.to_le_bytes());
        out.extend_from_slice(&node.parent.map_or(NO_PARENT, |p| p.0).to_le_bytes());
        out.extend_from_slice(&(node.label.index() as u32).to_le_bytes());
        out.extend_from_slice(&(tree.children_at(slot).len() as u32).to_le_bytes());
    }
    // child identifiers, concatenated in slot order
    for slot in tree.slots() {
        for c in tree.children_at(slot) {
            out.extend_from_slice(&c.0.to_le_bytes());
        }
    }
    // slot index: dense table (trailing vacants trimmed — lookups past the
    // dense range fall through to sparse, so trimming is semantics-free
    // and keeps the image deterministic), then sparse outliers by id
    let dense = tree.slot_index().dense_raw();
    let dense_used = dense.len() - dense.iter().rev().take_while(|&&s| s == VACANT).count();
    out.extend_from_slice(&(dense_used as u64).to_le_bytes());
    for &s in &dense[..dense_used] {
        let s = if s == VACANT { s } else { renumber(s) };
        out.extend_from_slice(&s.to_le_bytes());
    }
    let mut sparse: Vec<(u64, u32)> = tree
        .slot_index()
        .sparse_raw()
        .iter()
        .map(|(&id, &s)| (id, renumber(s)))
        .collect();
    sparse.sort_unstable();
    out.extend_from_slice(&(sparse.len() as u64).to_le_bytes());
    for (id, s) in sparse {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&s.to_le_bytes());
    }
    // label string table, in Sym order
    for i in 0..labels {
        let name = alpha.name(Sym::from_index(i));
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }

    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    Ok(out)
}

// ---------------------------------------------------------------- decode

fn decode_tree(bytes: &[u8], alpha: &mut Alphabet) -> Result<DocTree, SnapshotError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(4)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic([
            magic[0], magic[1], magic[2], magic[3],
        ]));
    }
    let version = r.u16()?;
    if version != SNAPSHOT_FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let codec = r.take(2)?[0];
    if codec != LABEL_CODEC_INTERNED {
        return Err(SnapshotError::UnsupportedCodec(codec));
    }

    // integrity trailer first: everything after the header is only
    // trusted once the checksum over the whole image matches
    if bytes.len() < HEADER_LEN + 8 {
        return Err(SnapshotError::Truncated {
            need: HEADER_LEN + 8,
            have: bytes.len(),
        });
    }
    let body = &bytes[..bytes.len() - 8];
    let tail = &bytes[bytes.len() - 8..];
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    let actual = fnv1a64(body);
    if stored != actual {
        return Err(SnapshotError::ChecksumMismatch { stored, actual });
    }
    let mut r = Reader::new(body);
    r.take(8)?; // magic + version + codec + reserved, validated above

    let node_count = r.u64()?;
    let child_total = r.u64()?;
    let root = NodeId(r.u64()?);
    let label_count = r.u64()?;
    if node_count == 0 {
        return Err(SnapshotError::Malformed("empty tree (0 nodes)".into()));
    }
    if node_count > u64::from(u32::MAX) {
        return Err(SnapshotError::Malformed(format!(
            "{node_count} nodes exceed the u32 slot space"
        )));
    }
    if child_total != node_count - 1 {
        return Err(SnapshotError::Malformed(format!(
            "{node_count} nodes but {child_total} child references (want {})",
            node_count - 1
        )));
    }
    // allocation guards: every section must fit the remaining input
    let need = node_count as usize * NODE_RECORD_LEN;
    if r.remaining() < need {
        return Err(SnapshotError::Malformed(format!(
            "node count {node_count} exceeds what {} remaining bytes can hold",
            r.remaining()
        )));
    }

    let records = r.take(node_count as usize * NODE_RECORD_LEN)?;
    let child_need = child_total as usize * 8;
    if r.remaining() < child_need {
        return Err(SnapshotError::Malformed(format!(
            "child total {child_total} exceeds what {} remaining bytes can hold",
            r.remaining()
        )));
    }
    let child_bytes = r.take(child_need)?;

    // slot index image
    let dense_len = r.count(4, "dense slot table")?;
    let dense_bytes = r.take(dense_len * 4)?;
    let sparse_len = r.count(12, "sparse slot table")?;
    let sparse_bytes = r.take(sparse_len * 12)?;

    // label table → remap into the caller's alphabet (identity when the
    // alphabet already interns the same names at the same indices)
    let mut remap: Vec<Sym> = Vec::with_capacity(label_count.min(r.remaining() as u64) as usize);
    for _ in 0..label_count {
        let len = r.u32()? as usize;
        let raw = r.take(len)?;
        let name = std::str::from_utf8(raw).map_err(|_| SnapshotError::BadUtf8)?;
        remap.push(alpha.intern(name));
    }
    if r.remaining() != 0 {
        return Err(SnapshotError::Malformed(format!(
            "{} trailing bytes after the label table",
            r.remaining()
        )));
    }

    // bulk arena decode: the child array becomes the child buffer in one
    // pass, and each fixed-width record takes the next run of it
    let kids: Vec<NodeId> = child_bytes
        .chunks_exact(8)
        .map(|c| NodeId(u64::from_le_bytes(c.try_into().expect("child id"))))
        .collect();
    let mut slab: Vec<Node<Sym>> = Vec::with_capacity(node_count as usize);
    let mut child_pos = 0u64;
    for rec in records.chunks_exact(NODE_RECORD_LEN) {
        let id = u64::from_le_bytes(rec[0..8].try_into().expect("record id"));
        let parent = u64::from_le_bytes(rec[8..16].try_into().expect("record parent"));
        let label = u32::from_le_bytes(rec[16..20].try_into().expect("record label"));
        let n_children = u32::from_le_bytes(rec[20..24].try_into().expect("record child count"));
        let label = *remap
            .get(label as usize)
            .ok_or(SnapshotError::LabelOutOfRange {
                label,
                labels: label_count,
            })?;
        if child_pos + u64::from(n_children) > child_total {
            return Err(SnapshotError::Malformed(format!(
                "node {id} declares {n_children} children past the child array"
            )));
        }
        slab.push(Node::new(
            NodeId(id),
            label,
            (parent != NO_PARENT).then_some(NodeId(parent)),
            child_pos as u32,
            n_children,
        ));
        child_pos += u64::from(n_children);
    }
    if child_pos != child_total {
        return Err(SnapshotError::Malformed(format!(
            "{} child references unclaimed by any node",
            child_total - child_pos
        )));
    }

    // bulk index decode: the dense table is copied verbatim; sparse
    // entries must lie beyond it (the dense range is authoritative)
    let mut indexed = 0usize;
    let mut dense: Vec<u32> = Vec::with_capacity(dense_len);
    for b in dense_bytes.chunks_exact(4) {
        let s = u32::from_le_bytes(b.try_into().expect("dense slot"));
        if s != VACANT {
            if u64::from(s) >= node_count {
                return Err(SnapshotError::SlotOutOfRange {
                    slot: s,
                    nodes: node_count,
                });
            }
            indexed += 1;
        }
        dense.push(s);
    }
    let mut sparse: HashMap<u64, u32> = HashMap::with_capacity(sparse_len);
    for b in sparse_bytes.chunks_exact(12) {
        let id = u64::from_le_bytes(b[0..8].try_into().expect("sparse id"));
        // Identifiers past the dense table are indexed here, so this is
        // where an out-of-range one surfaces; a node left unindexed fails
        // `validate` below.
        if id > NodeId::MAX.0 {
            return Err(SnapshotError::Malformed(format!(
                "identifier {id} is out of range"
            )));
        }
        let s = u32::from_le_bytes(b[8..12].try_into().expect("sparse slot"));
        if (id as usize) < dense.len() || s == VACANT || u64::from(s) >= node_count {
            return Err(SnapshotError::SlotOutOfRange {
                slot: s,
                nodes: node_count,
            });
        }
        if sparse.insert(id, s).is_some() {
            return Err(SnapshotError::Malformed(format!(
                "duplicate sparse index entry for identifier {id}"
            )));
        }
        indexed += 1;
    }
    let index = SlotIndex::from_raw_parts(dense, sparse, indexed);

    let tree = Tree::from_raw_parts(slab, kids, index, root);
    // `validate` resolves the root unconditionally; check it exists first
    if !tree.contains(root) {
        return Err(SnapshotError::Invalid(format!(
            "root {root} is not among the nodes"
        )));
    }
    tree.validate()
        .map_err(|e| SnapshotError::Invalid(e.to_string()))?;
    Ok(tree)
}

impl Tree<Sym> {
    /// Encodes this document as a flat arena snapshot (format version 1).
    ///
    /// `alpha` must be the alphabet the tree's labels were interned in;
    /// the snapshot embeds the label names so decoding into a different
    /// alphabet remaps symbols by name.
    pub fn to_snapshot_bytes(&self, alpha: &Alphabet) -> Result<Vec<u8>, SnapshotError> {
        encode_tree(self, alpha)
    }

    /// Decodes a flat arena snapshot produced by
    /// [`Tree::to_snapshot_bytes`] — a single bounds-checked bulk pass.
    ///
    /// Label names are interned into `alpha` (an identity remap when the
    /// alphabet already holds them at the encoding indices). The decoded
    /// tree is [`Tree::validate`]d, so corrupt input yields a typed
    /// [`SnapshotError`], never a panic or unbounded allocation.
    pub fn from_snapshot_bytes(
        bytes: &[u8],
        alpha: &mut Alphabet,
    ) -> Result<DocTree, SnapshotError> {
        decode_tree(bytes, alpha)
    }
}

// ---------------------------------------------------------------- corpus

/// One entry of a corpus directory: which document lives where.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The document identifier (the serving store's key).
    pub doc_id: u64,
    /// The document's family (engine/schema index).
    pub family: u32,
    offset: usize,
    len: usize,
}

impl CorpusEntry {
    /// Size of this document's snapshot section in bytes.
    pub fn byte_len(&self) -> usize {
        self.len
    }
}

/// Builds a corpus file: a directory of `(doc id, family)` entries plus
/// length-prefixed snapshot sections, closed by a checksum.
#[derive(Debug, Default)]
pub struct CorpusBuilder {
    docs: Vec<(u64, u32, Vec<u8>)>,
}

impl CorpusBuilder {
    /// An empty builder.
    pub fn new() -> CorpusBuilder {
        CorpusBuilder::default()
    }

    /// Number of documents queued so far.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether no documents are queued.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Encodes `tree` and queues it under `doc_id`/`family`.
    pub fn push(
        &mut self,
        doc_id: u64,
        family: u32,
        tree: &DocTree,
        alpha: &Alphabet,
    ) -> Result<(), SnapshotError> {
        let bytes = tree.to_snapshot_bytes(alpha)?;
        self.docs.push((doc_id, family, bytes));
        Ok(())
    }

    /// Queues pre-encoded snapshot bytes under `doc_id`/`family`.
    pub fn push_bytes(&mut self, doc_id: u64, family: u32, bytes: Vec<u8>) {
        self.docs.push((doc_id, family, bytes));
    }

    /// Assembles the corpus image.
    pub fn finish(self) -> Vec<u8> {
        let dir_len = CORPUS_HEADER_LEN + self.docs.len() * CORPUS_DIR_ENTRY_LEN;
        let total: usize = dir_len + self.docs.iter().map(|(_, _, b)| b.len()).sum::<usize>() + 8;
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&CORPUS_MAGIC);
        out.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(self.docs.len() as u64).to_le_bytes());
        let mut offset = dir_len;
        for (doc_id, family, bytes) in &self.docs {
            out.extend_from_slice(&doc_id.to_le_bytes());
            out.extend_from_slice(&family.to_le_bytes());
            out.extend_from_slice(&(offset as u64).to_le_bytes());
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            offset += bytes.len();
        }
        for (_, _, bytes) in &self.docs {
            out.extend_from_slice(bytes);
        }
        let sum = fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }
}

/// A whole corpus of flat snapshots, loaded in one read.
///
/// The directory is parsed and bounds-checked once at open; each
/// document decodes lazily out of the shared byte image via
/// [`SnapshotFile::decode`].
pub struct SnapshotFile {
    data: Vec<u8>,
    entries: Vec<CorpusEntry>,
}

impl fmt::Debug for SnapshotFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotFile")
            .field("bytes", &self.data.len())
            .field("entries", &self.entries)
            .finish()
    }
}

impl SnapshotFile {
    /// Parses a corpus image already in memory.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<SnapshotFile, SnapshotError> {
        let entries = parse_corpus_directory(&bytes)?;
        Ok(SnapshotFile {
            data: bytes,
            entries,
        })
    }

    /// Reads a corpus file in one `read` and parses its directory.
    pub fn open(path: impl AsRef<Path>) -> Result<SnapshotFile, SnapshotError> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.as_ref().display())))?;
        SnapshotFile::from_bytes(bytes)
    }

    /// Number of documents in the corpus.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus holds no documents.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The directory, in file order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Directory position of `doc_id`, if present.
    pub fn find(&self, doc_id: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.doc_id == doc_id)
    }

    /// The raw snapshot section of the `idx`-th document.
    pub fn doc_bytes(&self, idx: usize) -> &[u8] {
        let e = &self.entries[idx];
        &self.data[e.offset..e.offset + e.len]
    }

    /// Decodes the `idx`-th document (see [`Tree::from_snapshot_bytes`]).
    pub fn decode(&self, idx: usize, alpha: &mut Alphabet) -> Result<DocTree, SnapshotError> {
        decode_tree(self.doc_bytes(idx), alpha)
    }
}

fn parse_corpus_directory(bytes: &[u8]) -> Result<Vec<CorpusEntry>, SnapshotError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(4)?;
    if magic != CORPUS_MAGIC {
        return Err(SnapshotError::BadMagic([
            magic[0], magic[1], magic[2], magic[3],
        ]));
    }
    let version = r.u16()?;
    if version != SNAPSHOT_FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    r.u16()?; // reserved
    if bytes.len() < CORPUS_HEADER_LEN + 8 {
        return Err(SnapshotError::Truncated {
            need: CORPUS_HEADER_LEN + 8,
            have: bytes.len(),
        });
    }
    let body = &bytes[..bytes.len() - 8];
    let tail = &bytes[bytes.len() - 8..];
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    let actual = fnv1a64(body);
    if stored != actual {
        return Err(SnapshotError::ChecksumMismatch { stored, actual });
    }
    let mut r = Reader::new(body);
    r.take(8)?; // header, validated above
    let count = r.count(CORPUS_DIR_ENTRY_LEN, "corpus directory")?;
    let payload_end = body.len();
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let doc_id = r.u64()?;
        let family = r.u32()?;
        let offset = r.u64()?;
        let len = r.u64()?;
        let end = offset.checked_add(len).filter(|&e| e <= payload_end as u64);
        let Some(_) = end else {
            return Err(SnapshotError::Malformed(format!(
                "corpus section for doc {doc_id} ({offset}+{len}) escapes the file"
            )));
        };
        if offset < (CORPUS_HEADER_LEN + count * CORPUS_DIR_ENTRY_LEN) as u64 {
            return Err(SnapshotError::Malformed(format!(
                "corpus section for doc {doc_id} overlaps the directory"
            )));
        }
        entries.push(CorpusEntry {
            doc_id,
            family,
            offset: offset as usize,
            len: len as usize,
        });
    }
    let mut seen: Vec<u64> = entries.iter().map(|e| e.doc_id).collect();
    seen.sort_unstable();
    if seen.windows(2).any(|w| w[0] == w[1]) {
        return Err(SnapshotError::Malformed(
            "duplicate document identifier in corpus directory".into(),
        ));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_term_with_ids, NodeIdGen};

    fn doc(src: &str) -> (DocTree, Alphabet) {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let t = parse_term_with_ids(&mut alpha, &mut gen, src).unwrap();
        (t, alpha)
    }

    /// Recomputes the trailing checksum after tampering with the body.
    fn restamp(bytes: &mut [u8]) {
        let n = bytes.len();
        let sum = fnv1a64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn round_trip_is_identifier_exact() {
        let (t, alpha) = doc("r#0(a#1(c#3, c#4), b#2, a#5)");
        let bytes = t.to_snapshot_bytes(&alpha).unwrap();
        let mut alpha2 = alpha.clone();
        let u = Tree::from_snapshot_bytes(&bytes, &mut alpha2).unwrap();
        assert_eq!(t, u);
        u.validate().unwrap();
        assert_eq!(alpha2.len(), alpha.len(), "same alphabet: identity remap");
    }

    #[test]
    fn round_trip_into_fresh_alphabet_remaps_by_name() {
        let (t, alpha) = doc("r#0(a#1, b#2)");
        let bytes = t.to_snapshot_bytes(&alpha).unwrap();
        // decoding into an alphabet with different indices remaps labels
        let mut other = Alphabet::new();
        other.intern("zzz");
        other.intern("b");
        let u = Tree::from_snapshot_bytes(&bytes, &mut other).unwrap();
        assert_eq!(other.name(u.label(u.root())), "r");
        let kids = u.children(u.root());
        assert_eq!(other.name(u.label(kids[0])), "a");
        assert_eq!(other.name(u.label(kids[1])), "b");
        // identifiers are untouched by the remap
        assert_eq!(u.root(), NodeId(0));
    }

    #[test]
    fn encoding_is_deterministic() {
        let (t, alpha) = doc("r#0(a#1(c#3), b#2)");
        let a = t.to_snapshot_bytes(&alpha).unwrap();
        let b = t.to_snapshot_bytes(&alpha).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sparse_outlier_identifiers_round_trip() {
        let mut t = Tree::leaf_with_id(NodeId(0), Sym::from_index(0));
        t.add_child_with_id(NodeId(0), NodeId(u64::MAX - 1), Sym::from_index(1))
            .unwrap();
        t.add_child_with_id(NodeId(0), NodeId(1_000_000_000), Sym::from_index(0))
            .unwrap();
        let alpha = Alphabet::from_labels(["r", "a"]);
        let bytes = t.to_snapshot_bytes(&alpha).unwrap();
        let mut alpha2 = alpha.clone();
        let u = Tree::from_snapshot_bytes(&bytes, &mut alpha2).unwrap();
        assert_eq!(t, u);
        u.validate().unwrap();
    }

    #[test]
    fn vacant_slots_encode_as_the_compacted_image() {
        // r(a(b), c) without a(b) holds slots r, _, _, c: its image is the
        // one of r(c) built directly, whose slots are r, c
        let (mut t, alpha) = doc("r#0(a#1(b#2), c#3)");
        t.detach_subtree(NodeId(1)).unwrap();
        assert_eq!((t.size(), t.slot_bound()), (2, 4));
        let mut gen = NodeIdGen::new();
        let u = parse_term_with_ids(&mut alpha.clone(), &mut gen, "r#0(c#3)").unwrap();
        let bytes = t.to_snapshot_bytes(&alpha).unwrap();
        assert_eq!(bytes, u.to_snapshot_bytes(&alpha).unwrap());
        let back = Tree::from_snapshot_bytes(&bytes, &mut alpha.clone()).unwrap();
        back.validate().unwrap();
        assert_eq!(back, t);
        assert_eq!(back.slot_bound(), 2);
    }

    #[test]
    fn sentinel_identifier_is_unencodable() {
        let mut t = Tree::leaf_with_id(NodeId(0), Sym::from_index(0));
        t.add_child_with_id(NodeId(0), NodeId(u64::MAX), Sym::from_index(0))
            .unwrap();
        let alpha = Alphabet::from_labels(["r"]);
        assert!(matches!(
            t.to_snapshot_bytes(&alpha),
            Err(SnapshotError::Unencodable(_))
        ));
    }

    // ------------------------------------------------ corrupt inputs

    fn good() -> (Vec<u8>, Alphabet) {
        let (t, alpha) = doc("r#0(a#1(b#2))");
        (t.to_snapshot_bytes(&alpha).unwrap(), alpha)
    }

    #[test]
    fn truncated_inputs_error_cleanly() {
        let (bytes, mut alpha) = good();
        for cut in [0, 1, 3, 4, 7, 10, HEADER_LEN, bytes.len() - 1] {
            let err = Tree::from_snapshot_bytes(&bytes[..cut], &mut alpha).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let (bytes, mut alpha) = good();
        let mut bad = bytes.clone();
        bad[0] = b'Y';
        assert!(matches!(
            Tree::from_snapshot_bytes(&bad, &mut alpha),
            Err(SnapshotError::BadMagic(_))
        ));
        let mut bad = bytes.clone();
        bad[4] = 0xEE; // version
        assert!(matches!(
            Tree::from_snapshot_bytes(&bad, &mut alpha),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        let mut bad = bytes;
        bad[6] = 9; // label codec
        assert!(matches!(
            Tree::from_snapshot_bytes(&bad, &mut alpha),
            Err(SnapshotError::UnsupportedCodec(9))
        ));
    }

    #[test]
    fn flipped_byte_fails_the_checksum() {
        let (mut bytes, mut alpha) = good();
        bytes[HEADER_LEN + 3] ^= 0x40;
        assert!(matches!(
            Tree::from_snapshot_bytes(&bytes, &mut alpha),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn oversized_declared_counts_cannot_allocate() {
        let (bytes, mut alpha) = good();
        // node count far beyond the input: rejected before any allocation
        let mut bad = bytes.clone();
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        bad[16..24].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
        restamp(&mut bad);
        assert!(matches!(
            Tree::from_snapshot_bytes(&bad, &mut alpha),
            Err(SnapshotError::Malformed(_))
        ));
        // child total disagreeing with the node count
        let mut bad = bytes.clone();
        bad[16..24].copy_from_slice(&77u64.to_le_bytes());
        restamp(&mut bad);
        assert!(matches!(
            Tree::from_snapshot_bytes(&bad, &mut alpha),
            Err(SnapshotError::Malformed(_))
        ));
        // label count beyond the remaining bytes: the per-string reads
        // hit a typed truncation, never an oversized reservation
        let mut bad = bytes;
        bad[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        restamp(&mut bad);
        assert!(matches!(
            Tree::from_snapshot_bytes(&bad, &mut alpha),
            Err(SnapshotError::Truncated { .. } | SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn out_of_range_slot_entry_rejected() {
        // 3-node chain, ids 0..2: dense table starts after the header,
        // 3 records, 2 child ids, and the dense length word
        let (mut bytes, mut alpha) = good();
        let dense_at = HEADER_LEN + 3 * NODE_RECORD_LEN + 2 * 8 + 8;
        bytes[dense_at..dense_at + 4].copy_from_slice(&7u32.to_le_bytes());
        restamp(&mut bytes);
        assert!(matches!(
            Tree::from_snapshot_bytes(&bytes, &mut alpha),
            Err(SnapshotError::SlotOutOfRange { slot: 7, nodes: 3 })
        ));
    }

    #[test]
    fn cycle_in_links_is_a_typed_error() {
        // patch a#1's child entry (second child word) from b#2 to a#1:
        // node a becomes reachable twice and b dangles
        let (mut bytes, mut alpha) = good();
        let children_at = HEADER_LEN + 3 * NODE_RECORD_LEN;
        bytes[children_at + 8..children_at + 16].copy_from_slice(&1u64.to_le_bytes());
        restamp(&mut bytes);
        assert!(matches!(
            Tree::from_snapshot_bytes(&bytes, &mut alpha),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn absent_root_is_a_typed_error() {
        let (mut bytes, mut alpha) = good();
        bytes[24..32].copy_from_slice(&99u64.to_le_bytes());
        restamp(&mut bytes);
        assert!(matches!(
            Tree::from_snapshot_bytes(&bytes, &mut alpha),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn label_index_out_of_range_rejected() {
        let (mut bytes, mut alpha) = good();
        // first record's label word (offset 16 within the record)
        let at = HEADER_LEN + 16;
        bytes[at..at + 4].copy_from_slice(&9u32.to_le_bytes());
        restamp(&mut bytes);
        assert!(matches!(
            Tree::from_snapshot_bytes(&bytes, &mut alpha),
            Err(SnapshotError::LabelOutOfRange { label: 9, .. })
        ));
    }

    #[test]
    fn empty_and_trailing_inputs_rejected() {
        let mut alpha = Alphabet::new();
        assert!(matches!(
            Tree::from_snapshot_bytes(&[], &mut alpha),
            Err(SnapshotError::Truncated { .. })
        ));
        let (bytes, mut alpha) = good();
        let mut bad = bytes;
        let at = bad.len() - 8;
        bad.splice(at..at, [0u8; 4]); // junk between labels and checksum
        restamp(&mut bad);
        assert!(matches!(
            Tree::from_snapshot_bytes(&bad, &mut alpha),
            Err(SnapshotError::Malformed(_))
        ));
    }

    // ------------------------------------------------------- corpus

    fn corpus() -> (Vec<u8>, Alphabet) {
        let (t1, alpha) = doc("r#0(a#1, b#2)");
        let mut gen = NodeIdGen::starting_at(10);
        let mut alpha2 = alpha.clone();
        let t2 = parse_term_with_ids(&mut alpha2, &mut gen, "r#10(b#11(a#12))").unwrap();
        let mut b = CorpusBuilder::new();
        b.push(7, 0, &t1, &alpha).unwrap();
        b.push(8, 1, &t2, &alpha2).unwrap();
        (b.finish(), alpha2)
    }

    #[test]
    fn corpus_round_trips() {
        let (bytes, alpha) = corpus();
        let file = SnapshotFile::from_bytes(bytes).unwrap();
        assert_eq!(file.len(), 2);
        assert_eq!(file.entries()[0].doc_id, 7);
        assert_eq!(file.entries()[1].family, 1);
        assert_eq!(file.find(8), Some(1));
        assert_eq!(file.find(9), None);
        let mut a = alpha.clone();
        let t1 = file.decode(0, &mut a).unwrap();
        let t2 = file.decode(1, &mut a).unwrap();
        assert_eq!(t1.root(), NodeId(0));
        assert_eq!(t2.root(), NodeId(10));
        t1.validate().unwrap();
        t2.validate().unwrap();
    }

    #[test]
    fn corpus_open_reads_a_file() {
        let (bytes, alpha) = corpus();
        let path = std::env::temp_dir().join(format!("xvu-corpus-{}.xvus", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let file = SnapshotFile::open(&path).unwrap();
        assert_eq!(file.len(), 2);
        let mut a = alpha.clone();
        file.decode(0, &mut a).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corpus_corruption_rejected() {
        let (bytes, _) = corpus();
        // bad magic
        let mut bad = bytes.clone();
        bad[0] = b'Z';
        assert!(matches!(
            SnapshotFile::from_bytes(bad),
            Err(SnapshotError::BadMagic(_))
        ));
        // directory count beyond the input
        let mut bad = bytes.clone();
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        restamp(&mut bad);
        assert!(matches!(
            SnapshotFile::from_bytes(bad),
            Err(SnapshotError::Malformed(_))
        ));
        // a section escaping the file
        let mut bad = bytes.clone();
        let len_at = CORPUS_HEADER_LEN + 20; // first entry's len field
        bad[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        restamp(&mut bad);
        assert!(matches!(
            SnapshotFile::from_bytes(bad),
            Err(SnapshotError::Malformed(_))
        ));
        // duplicate doc id
        let mut bad = bytes.clone();
        let second_id_at = CORPUS_HEADER_LEN + CORPUS_DIR_ENTRY_LEN;
        bad[second_id_at..second_id_at + 8].copy_from_slice(&7u64.to_le_bytes());
        restamp(&mut bad);
        assert!(matches!(
            SnapshotFile::from_bytes(bad),
            Err(SnapshotError::Malformed(_))
        ));
        // truncation
        assert!(SnapshotFile::from_bytes(bytes[..10].to_vec()).is_err());
    }

    #[test]
    fn corpus_of_zero_docs_is_valid() {
        let bytes = CorpusBuilder::new().finish();
        let file = SnapshotFile::from_bytes(bytes).unwrap();
        assert!(file.is_empty());
    }
}
