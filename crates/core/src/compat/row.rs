//! The bit-packed compatibility row: the resident representation every
//! relation is served from.
//!
//! A [`super::SourceCompatibility`] (the unpacked output of the per-relation
//! algorithms) stores one `bool` plus one `Option<u32>` per node — 9 bytes
//! per node. [`CompatRow`] packs the same facts into
//!
//! * a `u64`-word **bitset** for the compatible set (1 bit per node),
//! * a second bitset with the same word indexing for the SP **mixed** flag
//!   (the node has both positive and negative shortest paths from the
//!   source; 1 bit per node),
//! * a **lane** of distance codes, 4 or 8 bits per node. With `b`-bit codes
//!   the top code (`2^b − 1`) means unreachable, the one below it means
//!   "exact distance in the side table", and every other code is the
//!   distance itself: 0..=13 inline at 4 bits, 0..=253 at 8, and
//! * a sorted **side table** of `(node, u16 distance)` entries for the
//!   distances past the inline range.
//!
//! Relation distances are mostly BFS levels, and the benchmark
//! deployments' diameters are 4–12, so their rows take 4-bit codes, with
//! an empty side table for every DPE, SP-family and NNE row: ~0.75 bytes
//! per node, a 12× smaller resident row. The code width is fixed when a
//! row is packed and chosen by size: 4-bit codes cost `⌈n/2⌉ + 8·#{d > 13}`
//! bytes, 8-bit codes `n + 8·#{d > 253}`, and the row takes the smaller
//! (4-bit on a tie). A long ring or a sparse tree thus packs 8-bit codes
//! instead of spilling most of its nodes into the side table. Repair keeps
//! a row's width: a distance past its inline range moves into the side
//! table.
//!
//! The layout is not only small: the bitset makes set operations
//! word-parallel, which is what the greedy solver's
//! [`crate::team::CandidateMask`] fast path, the popcount-based pair
//! statistics and the skill-degree computation exploit.
//!
//! The mixed flag is what lets a sign flip be repaired in place: together
//! with the compatibility bit it recovers each node's shortest-path *sign
//! class* (positive only, negative only, or both) for SPA and SPO rows (see
//! [`super::repair`]). Rows of other kinds leave it clear.

use serde::{Deserialize, Serialize};
use signed_graph::NodeId;

use super::{CompatibilityKind, SourceCompatibility};

/// Sentinel value of [`CompatRow::raw_distance`]: no defined distance.
pub const UNREACHABLE_DISTANCE: u16 = u16::MAX;

/// Largest distance a row can represent exactly; anything above saturates
/// here (relation distances are BFS levels, so this is unreachable in
/// practice on graphs that fit in memory).
pub const MAX_PACKED_DISTANCE: u32 = (u16::MAX - 1) as u32;

/// One side-table entry: a node and its exact (saturated) distance.
pub(crate) type SideEntry = (u32, u16);

/// Number of `u64` words needed for a bitset over `nodes` bits.
pub const fn bitset_words(nodes: usize) -> usize {
    nodes.div_ceil(64)
}

/// The width of a row's distance codes: 4 bits (two nodes per lane byte)
/// or 8 bits (one). Both widths share one code path, parameterised by a
/// shift and a mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct LaneWidth {
    /// log2 of the nodes per lane byte: 1 for 4-bit codes, 0 for 8-bit.
    per_byte_log2: u8,
}

impl LaneWidth {
    /// 4-bit codes: distances 0..=13 inline.
    pub(crate) const NIBBLE: LaneWidth = LaneWidth { per_byte_log2: 1 };
    /// 8-bit codes: distances 0..=253 inline.
    pub(crate) const BYTE: LaneWidth = LaneWidth { per_byte_log2: 0 };

    /// The width that packs a row over `nodes` nodes into fewer bytes,
    /// given its finite distances (4-bit on a tie). One pass over the
    /// distances the relation's scan produced; nothing is packed twice.
    pub(crate) fn fitting(nodes: usize, distances: impl IntoIterator<Item = u32>) -> LaneWidth {
        let mut past = PastInline::default();
        for d in distances {
            past.count(d);
        }
        Self::choose(nodes, past)
    }

    /// The width rule itself, from how many distances fall past each
    /// width's inline range.
    fn choose(nodes: usize, past: PastInline) -> LaneWidth {
        let entry = std::mem::size_of::<SideEntry>();
        let nibble = Self::NIBBLE.lane_bytes(nodes) + past.past_nibble * entry;
        let byte = Self::BYTE.lane_bytes(nodes) + past.past_byte * entry;
        if nibble <= byte {
            Self::NIBBLE
        } else {
            Self::BYTE
        }
    }

    /// Bits per code: 4 or 8.
    const fn bits(self) -> u32 {
        8 >> self.per_byte_log2
    }

    /// Mask of one code; also the "unreachable" code.
    const fn mask(self) -> u8 {
        (0xffu16 >> (8 - self.bits())) as u8
    }

    /// The "exact distance in the side table" code.
    const fn side_code(self) -> u8 {
        self.mask() - 1
    }

    /// Largest distance stored inline: 13 or 253.
    const fn max_inline(self) -> u16 {
        self.mask() as u16 - 2
    }

    /// Bytes of a lane over `nodes` nodes.
    const fn lane_bytes(self, nodes: usize) -> usize {
        nodes.div_ceil(1 << self.per_byte_log2)
    }

    /// The lane byte holding `v`'s code, and the code's bit offset in it.
    #[inline]
    const fn locate(self, v: usize) -> (usize, u32) {
        let s = self.per_byte_log2 as u32;
        (v >> s, ((v << (3 - s)) & 7) as u32)
    }

    /// The code for `raw_distance`.
    fn encode(self, raw_distance: u16) -> u8 {
        match raw_distance {
            UNREACHABLE_DISTANCE => self.mask(),
            d if d <= self.max_inline() => d as u8,
            _ => self.side_code(),
        }
    }
}

/// How many of a row's distances fall past the inline range of each code
/// width: all the width rule needs to know about them.
#[derive(Debug, Clone, Copy, Default)]
struct PastInline {
    past_nibble: usize,
    past_byte: usize,
}

impl PastInline {
    fn count(&mut self, d: u32) {
        self.past_nibble += usize::from(d > u32::from(LaneWidth::NIBBLE.max_inline()));
        self.past_byte += usize::from(d > u32::from(LaneWidth::BYTE.max_inline()));
    }
}

/// One source's compatibility row in the bit-packed resident layout: who is
/// compatible with the source and which nodes the SP relations mark mixed
/// (1 bit per node each), at what distance (a 4- or 8-bit code per node,
/// plus side-table entries for distances past the inline range). See the
/// module docs for the byte math.
///
/// Rows compare by the facts they hold: two rows with the same bits, mixed
/// flags and distances are equal even when their code widths differ (a
/// repaired row keeps the width it was packed with).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompatRow {
    source: NodeId,
    kind: CompatibilityKind,
    width: LaneWidth,
    nodes: usize,
    bits: Vec<u64>,
    mixed: Vec<u64>,
    lane: Vec<u8>,
    /// Sorted by node: the exact distances of lanes coded as side-table
    /// entries.
    side: Vec<SideEntry>,
}

impl PartialEq for CompatRow {
    fn eq(&self, other: &Self) -> bool {
        let same_distances = || {
            if self.width == other.width {
                self.lane == other.lane && self.side == other.side
            } else {
                (0..self.nodes).all(|v| self.raw_distance(v) == other.raw_distance(v))
            }
        };
        self.source == other.source
            && self.kind == other.kind
            && self.nodes == other.nodes
            && self.bits == other.bits
            && self.mixed == other.mixed
            && same_distances()
    }
}

impl Eq for CompatRow {}

impl CompatRow {
    /// Packs a row node by node with `width`-bit codes: `entry(v)` gives
    /// `v`'s compatibility bit, distance and mixed flag. Nodes arrive in
    /// ascending order, so side-table entries are appended already sorted.
    pub(crate) fn pack(
        source: NodeId,
        kind: CompatibilityKind,
        width: LaneWidth,
        nodes: usize,
        mut entry: impl FnMut(usize) -> (bool, Option<u32>, bool),
    ) -> Self {
        let mut bits = vec![0u64; bitset_words(nodes)];
        let mut mixed = vec![0u64; bitset_words(nodes)];
        let mut lane = vec![0u8; width.lane_bytes(nodes)];
        let mut side = Vec::new();
        for v in 0..nodes {
            let (compatible, distance, is_mixed) = entry(v);
            bits[v / 64] |= u64::from(compatible) << (v % 64);
            mixed[v / 64] |= u64::from(is_mixed) << (v % 64);
            let raw = distance.map_or(UNREACHABLE_DISTANCE, |d| d.min(MAX_PACKED_DISTANCE) as u16);
            let code = width.encode(raw);
            if code == width.side_code() {
                side.push((v as u32, raw));
            }
            let (byte, offset) = width.locate(v);
            lane[byte] |= code << offset;
        }
        // The spare slot of an odd-length 4-bit lane reads as unreachable,
        // so `raw_distance` bounds its reads by the lane alone.
        for v in nodes..lane.len() << width.per_byte_log2 {
            let (byte, offset) = width.locate(v);
            lane[byte] |= width.mask() << offset;
        }
        side.shrink_to_fit();
        CompatRow {
            source,
            kind,
            width,
            nodes,
            bits,
            mixed,
            lane,
            side,
        }
    }

    /// Packs an unpacked per-source computation into the resident layout.
    /// A [`SourceCompatibility`] carries no path-sign classes, so the mixed
    /// flags stay clear.
    pub fn from_source(sc: &SourceCompatibility) -> Self {
        let nodes = sc.compatible.len();
        let width = LaneWidth::fitting(nodes, sc.distance.iter().flatten().copied());
        Self::pack(sc.source, sc.kind, width, nodes, |v| {
            (sc.compatible[v], sc.distance[v], false)
        })
    }

    /// The query node this row was computed from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The relation kind that produced this row.
    pub fn kind(&self) -> CompatibilityKind {
        self.kind
    }

    /// Number of nodes the row covers.
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// `true` for a row over an empty graph.
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// The raw bitset words (used by the word-parallel mask operations).
    /// Bits at positions `>= len()` in the last word are always zero.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Bits per distance code, fixed when the row was packed: 4 (distances
    /// 0..=13 inline) or 8 (0..=253 inline).
    pub fn code_bits(&self) -> u32 {
        self.width.bits()
    }

    /// Bytes of the distance lane: `⌈n/2⌉` at 4-bit codes, `n` at 8-bit
    /// (counted by [`super::row_bytes`]).
    pub(crate) fn lane_bytes(&self) -> usize {
        self.lane.len()
    }

    /// Number of side-table entries: nodes whose distance is past the
    /// inline range (counted by [`super::row_bytes`]).
    pub fn side_table_len(&self) -> usize {
        self.side.len()
    }

    /// `true` iff `(source, v)` is in the relation according to this row.
    /// Out-of-range `v` is incompatible.
    pub fn is_compatible(&self, v: usize) -> bool {
        v < self.nodes && self.bits[v / 64] >> (v % 64) & 1 == 1
    }

    /// The relation distance from the source to `v`, if defined.
    pub fn distance(&self, v: usize) -> Option<u32> {
        match self.raw_distance(v) {
            UNREACHABLE_DISTANCE => None,
            d => Some(u32::from(d)),
        }
    }

    /// The raw distance to `v` ([`UNREACHABLE_DISTANCE`] when undefined or
    /// out of range). The sentinel is `u16::MAX`, so the minimum of two raw
    /// distances is the symmetric-closure distance.
    #[inline]
    pub fn raw_distance(&self, v: usize) -> u16 {
        // One decode; naming the width as a constant in each arm lets the
        // compiler fold its shift and mask (this is the solver's hot read).
        if self.width == LaneWidth::NIBBLE {
            self.decode(LaneWidth::NIBBLE, v)
        } else {
            self.decode(LaneWidth::BYTE, v)
        }
    }

    /// The raw distance of `v`, read with the row's `width`. Slots past
    /// `len()` read as unreachable: past the lane, or the spare slot
    /// [`Self::pack`] fills with the unreachable code.
    #[inline(always)]
    fn decode(&self, width: LaneWidth, v: usize) -> u16 {
        let (byte, offset) = width.locate(v);
        let Some(&byte) = self.lane.get(byte) else {
            return UNREACHABLE_DISTANCE;
        };
        let code = byte >> offset & width.mask();
        if code < width.side_code() {
            u16::from(code)
        } else if code == width.mask() {
            UNREACHABLE_DISTANCE
        } else {
            self.side_distance(v)
        }
    }

    #[cold]
    #[inline(never)]
    fn side_distance(&self, v: usize) -> u16 {
        let i = self
            .side
            .binary_search_by_key(&(v as u32), |&(node, _)| node)
            .expect("a side-table lane code has a side-table entry");
        self.side[i].1
    }

    /// `true` when the SP row marks `v` as reached by both positive and
    /// negative shortest paths (always `false` for other kinds).
    pub(crate) fn is_mixed(&self, v: usize) -> bool {
        self.mixed[v / 64] >> (v % 64) & 1 == 1
    }

    /// Number of nodes compatible with the source (including the source
    /// itself): one popcount pass over the bitset.
    pub fn compatible_count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits shared with `words` (which must use the same
    /// node indexing; extra words on either side are ignored).
    pub fn intersection_count(&self, words: &[u64]) -> usize {
        self.bits
            .iter()
            .zip(words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// The indices of all compatible nodes, ascending (iterated via
    /// `trailing_zeros` over the bitset words).
    pub fn iter_compatible(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let w = w & (w - 1); // clear lowest set bit
                (w != 0).then_some(w)
            })
            .map(move |w| wi * 64 + w.trailing_zeros() as usize)
        })
    }

    /// Mean distance over compatible nodes other than the source, ignoring
    /// pairs with undefined distance.
    pub fn mean_compatible_distance(&self) -> Option<f64> {
        let mut total = 0u64;
        let mut count = 0u64;
        for v in self.iter_compatible() {
            if v == self.source.index() {
                continue;
            }
            if let Some(d) = self.distance(v) {
                total += u64::from(d);
                count += 1;
            }
        }
        (count > 0).then(|| total as f64 / count as f64)
    }

    /// Overwrites the raw distance for `v` without touching its
    /// compatibility bit or mixed flag (used by the repair relaxation,
    /// whose lane updates are independent of the bitset patches). Moves
    /// the entry into or out of the side table as the distance crosses the
    /// row's inline range; the code width never changes.
    pub(crate) fn set_distance(&mut self, v: usize, raw_distance: u16) {
        debug_assert!(v < self.nodes);
        let (byte, offset) = self.width.locate(v);
        let side_code = self.width.side_code();
        let code = self.width.encode(raw_distance);
        let current = self.lane[byte] >> offset & self.width.mask();
        if current == side_code || code == side_code {
            let slot = self
                .side
                .binary_search_by_key(&(v as u32), |&(node, _)| node);
            let exact = raw_distance.min(MAX_PACKED_DISTANCE as u16);
            match (slot, code == side_code) {
                (Ok(i), true) => self.side[i].1 = exact,
                (Err(i), true) => self.side.insert(i, (v as u32, exact)),
                (Ok(i), false) => {
                    self.side.remove(i);
                }
                (Err(_), false) => {}
            }
        }
        let lane = &mut self.lane[byte];
        *lane = (*lane & !(self.width.mask() << offset)) | (code << offset);
    }

    /// Sets or clears the compatibility bit of `v`.
    pub(crate) fn set_compatible(&mut self, v: usize, compatible: bool) {
        debug_assert!(v < self.nodes);
        set_bit(&mut self.bits, v, compatible);
    }

    /// Sets or clears the SP mixed flag of `v`.
    pub(crate) fn set_mixed(&mut self, v: usize, mixed: bool) {
        debug_assert!(v < self.nodes);
        set_bit(&mut self.mixed, v, mixed);
    }

    /// Overwrites the bit and distance of `v` (used by the symmetric
    /// closure and the DPE/NNE patches).
    pub(crate) fn set(&mut self, v: usize, compatible: bool, raw_distance: u16) {
        self.set_compatible(v, compatible);
        self.set_distance(v, raw_distance);
    }

    /// Unpacks back into the legacy layout (tests and round-trip checks).
    pub fn to_source(&self) -> SourceCompatibility {
        SourceCompatibility {
            source: self.source,
            kind: self.kind,
            compatible: (0..self.nodes).map(|v| self.is_compatible(v)).collect(),
            distance: (0..self.nodes).map(|v| self.distance(v)).collect(),
        }
    }
}

/// A row packed in place while a search reaches its nodes, in any order:
/// the bit-parallel fill ([`super::batch`]) writes each source's row this
/// way as its BFS levels complete, with no per-node distance buffer. The
/// row grows with 4-bit codes, and [`Self::finish`] applies the width rule
/// from the distances it counted, so the finished row equals the one
/// [`CompatRow::pack`] builds from the same facts, in every byte.
pub(crate) struct RowPacker {
    row: CompatRow,
    past: PastInline,
}

impl RowPacker {
    /// A row with no node reached yet: every code unreachable, no mixed
    /// flag, and every compatibility bit set to `compatible`.
    pub(crate) fn new(
        source: NodeId,
        kind: CompatibilityKind,
        nodes: usize,
        compatible: bool,
    ) -> Self {
        let width = LaneWidth::NIBBLE;
        let mut bits = vec![0u64; bitset_words(nodes)];
        if compatible {
            for v in 0..nodes {
                bits[v / 64] |= 1 << (v % 64);
            }
        }
        RowPacker {
            row: CompatRow {
                source,
                kind,
                width,
                nodes,
                bits,
                mixed: vec![0u64; bitset_words(nodes)],
                lane: vec![0xff; width.lane_bytes(nodes)],
                side: Vec::new(),
            },
            past: PastInline::default(),
        }
    }

    /// Records that the search reached `v` at `distance`: sets its code,
    /// and sets its bit and mixed flag where asked (a set bit stays set).
    /// Each node is reached at most once.
    #[inline]
    pub(crate) fn reach(&mut self, v: usize, compatible: bool, distance: u32, mixed: bool) {
        let row = &mut self.row;
        row.bits[v / 64] |= u64::from(compatible) << (v % 64);
        row.mixed[v / 64] |= u64::from(mixed) << (v % 64);
        self.past.count(distance);
        let raw = distance.min(MAX_PACKED_DISTANCE) as u16;
        let code = row.width.encode(raw);
        if code == row.width.side_code() {
            row.side.push((v as u32, raw));
        }
        let (byte, offset) = row.width.locate(v);
        row.lane[byte] &= !(row.width.mask() << offset);
        row.lane[byte] |= code << offset;
    }

    /// The finished row: side entries sorted by node, and 8-bit codes if the
    /// width rule picks them (the 4-bit row is then repacked once).
    pub(crate) fn finish(self) -> CompatRow {
        let RowPacker { mut row, past } = self;
        row.side.sort_unstable_by_key(|&(v, _)| v);
        let width = LaneWidth::choose(row.nodes, past);
        if width != row.width {
            return CompatRow::pack(row.source, row.kind, width, row.nodes, |v| {
                (row.is_compatible(v), row.distance(v), row.is_mixed(v))
            });
        }
        row.side.shrink_to_fit();
        row
    }
}

/// Sets or clears bit `v` of a `u64`-word bitset.
fn set_bit(words: &mut [u64], v: usize, on: bool) {
    let (word, bit) = (v / 64, 1u64 << (v % 64));
    if on {
        words[word] |= bit;
    } else {
        words[word] &= !bit;
    }
}

/// A plain mutable bitset over node ids, sharing [`CompatRow`]'s word
/// indexing — the one implementation behind every "is this node in the
/// set?" probe outside the rows themselves (the greedy relevance pool).
#[derive(Debug, Clone)]
pub struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// An empty set over `nodes` ids.
    pub fn new(nodes: usize) -> Self {
        NodeSet {
            words: vec![0u64; bitset_words(nodes)],
        }
    }

    /// Inserts `v` (ignores out-of-range ids).
    pub fn insert(&mut self, v: NodeId) {
        let v = v.index();
        if v / 64 < self.words.len() {
            self.words[v / 64] |= 1u64 << (v % 64);
        }
    }

    /// `true` iff `v` is in the set.
    pub fn contains(&self, v: NodeId) -> bool {
        let v = v.index();
        v / 64 < self.words.len() && self.words[v / 64] >> (v % 64) & 1 == 1
    }

    /// The raw words (same indexing as [`CompatRow::words`]).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// A borrowed or shared handle to one bit-packed row, plus whether that
/// single row is **exact** — i.e. equals the (symmetric) relation restricted
/// to its source. Matrix rows are exact for every kind (the matrix stores
/// the symmetric closure); a lazily computed row is exact only for the
/// per-source-symmetric kinds, and a forward-direction *lower bound* for
/// SBPH and budget-limited SBP (a clear bit may still be compatible through
/// the reverse row).
#[derive(Debug, Clone)]
pub struct RowHandle<'a> {
    row: RowRef<'a>,
    exact: bool,
}

#[derive(Debug, Clone)]
enum RowRef<'a> {
    Borrowed(&'a CompatRow),
    Shared(std::sync::Arc<CompatRow>),
}

impl<'a> RowHandle<'a> {
    /// A handle borrowing a row owned by the relation (a matrix, or a full
    /// store's row table).
    pub fn borrowed(row: &'a CompatRow, exact: bool) -> Self {
        RowHandle {
            row: RowRef::Borrowed(row),
            exact,
        }
    }

    /// A handle sharing a cached row (a store's locked row path).
    pub fn shared(row: std::sync::Arc<CompatRow>, exact: bool) -> Self {
        RowHandle {
            row: RowRef::Shared(row),
            exact,
        }
    }

    /// The row itself.
    pub fn row(&self) -> &CompatRow {
        match &self.row {
            RowRef::Borrowed(r) => r,
            RowRef::Shared(r) => r,
        }
    }

    /// `true` when set *and clear* bits are authoritative; `false` when the
    /// row is a forward-direction lower bound (set bits remain sound).
    pub fn exact(&self) -> bool {
        self.exact
    }
}

/// An adapter hiding the packed-row fast path of a relation: every
/// [`super::Compatibility`] method delegates, but [`packed_row`] reports
/// `None`, forcing consumers onto the scalar pair-probe path. This is the
/// pre-bit-packing behaviour, kept for the equivalence proptests and for the
/// `bench-report` masked-vs-scalar speedup measurement.
///
/// [`packed_row`]: super::Compatibility::packed_row
#[derive(Debug, Clone, Copy)]
pub struct ScalarOnly<'a, C: ?Sized>(pub &'a C);

impl<C: super::Compatibility + ?Sized> super::Compatibility for ScalarOnly<'_, C> {
    fn kind(&self) -> CompatibilityKind {
        self.0.kind()
    }

    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn compatible(&self, u: NodeId, v: NodeId) -> bool {
        self.0.compatible(u, v)
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        self.0.distance(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(nodes: usize) -> SourceCompatibility {
        SourceCompatibility {
            source: NodeId::new(1),
            kind: CompatibilityKind::Spo,
            compatible: (0..nodes).map(|v| v % 3 != 0 || v == 1).collect(),
            distance: (0..nodes)
                .map(|v| (v % 4 != 3).then_some(v as u32))
                .collect(),
        }
    }

    #[test]
    fn pack_round_trips() {
        for nodes in [0usize, 1, 63, 64, 65, 130] {
            let sc = sample(nodes);
            let row = CompatRow::from_source(&sc);
            assert_eq!(row.len(), nodes);
            assert_eq!(row.to_source(), sc, "{nodes} nodes");
            // Past the row, including an odd 4-bit lane's spare slot.
            assert_eq!(row.raw_distance(nodes), UNREACHABLE_DISTANCE);
            assert_eq!(row.distance(nodes + 1), None);
            assert_eq!(
                row.compatible_count(),
                sc.compatible.iter().filter(|&&c| c).count()
            );
            // Bits past `nodes` stay zero.
            if let Some(last) = row.words().last() {
                let used = nodes - (row.words().len() - 1) * 64;
                if used < 64 {
                    assert_eq!(last >> used, 0);
                }
            }
        }
    }

    #[test]
    fn iter_compatible_matches_probes() {
        let row = CompatRow::from_source(&sample(100));
        let via_iter: Vec<usize> = row.iter_compatible().collect();
        let via_probe: Vec<usize> = (0..100).filter(|&v| row.is_compatible(v)).collect();
        assert_eq!(via_iter, via_probe);
    }

    #[test]
    fn distances_saturate_and_sentinel() {
        let sc = SourceCompatibility {
            source: NodeId::new(0),
            kind: CompatibilityKind::Nne,
            compatible: vec![true, true, false],
            distance: vec![Some(0), Some(u32::MAX), None],
        };
        let row = CompatRow::from_source(&sc);
        assert_eq!(row.distance(0), Some(0));
        assert_eq!(row.distance(1), Some(MAX_PACKED_DISTANCE));
        assert_eq!(row.distance(2), None);
        assert_eq!(row.raw_distance(2), UNREACHABLE_DISTANCE);
        assert_eq!(row.raw_distance(99), UNREACHABLE_DISTANCE);
        assert!(!row.is_compatible(99));
    }

    #[test]
    fn width_rule_picks_the_smaller_lane() {
        use LaneWidth as W;
        // Nothing past 13: 4-bit codes, whatever the node count.
        assert_eq!(W::fitting(0, []), W::NIBBLE);
        assert_eq!(W::fitting(1, [0]), W::NIBBLE);
        assert_eq!(W::fitting(100, (0..100).map(|v| v % 14)), W::NIBBLE);
        // ⌈n/2⌉ + 8·#{d > 13} against n + 8·#{d > 253}, 4-bit on a tie:
        // 16 nodes with one 14 cost 8 + 8 = 16 bytes either way; a second
        // 14 tips the row to 8-bit codes.
        assert_eq!(W::fitting(16, [0, 14]), W::NIBBLE);
        assert_eq!(W::fitting(16, [0, 14, 14]), W::BYTE);
        // Distances past 253 cost a side entry at either width.
        assert_eq!(W::fitting(17, [254]), W::NIBBLE);
        assert_eq!(W::fitting(40, (0..40).map(|d| d * 7)), W::BYTE);
        assert_eq!(
            (W::NIBBLE.max_inline(), W::BYTE.max_inline()),
            (13, 253),
            "the two top codes of each width are reserved"
        );
    }

    #[test]
    fn inline_boundaries_round_trip_at_both_widths() {
        // 4-bit: 13 is the last inline distance, 14 the first side entry;
        // 8-bit: 253 and 254. Odd node counts leave a padding nibble.
        for (nodes, inline, past) in [(31usize, 13u32, 14u32), (41, 253, 254)] {
            let sc = SourceCompatibility {
                source: NodeId::new(0),
                kind: CompatibilityKind::Nne,
                compatible: vec![true; nodes],
                distance: (0..nodes)
                    .map(|v| match v {
                        0 => Some(0),
                        1 => Some(past),
                        2 => None,
                        _ => Some(if v % 2 == 0 { inline } else { 1 }),
                    })
                    .collect(),
            };
            let row = CompatRow::from_source(&sc);
            let bits = if inline == 13 { 4 } else { 8 };
            assert_eq!(row.code_bits(), bits, "{nodes} nodes");
            assert_eq!(row.lane_bytes(), (nodes * bits as usize).div_ceil(8));
            assert_eq!(row.side_table_len(), 1, "only {past} leaves the lane");
            assert_eq!(row.to_source(), sc);
            assert_eq!(row.raw_distance(nodes), UNREACHABLE_DISTANCE);
        }
    }

    #[test]
    fn set_distance_moves_entries_through_the_side_table() {
        for width in [LaneWidth::NIBBLE, LaneWidth::BYTE] {
            let sc = sample(11);
            let mut row = CompatRow::pack(sc.source, sc.kind, width, 11, |v| {
                (sc.compatible[v], sc.distance[v], false)
            });
            row.set_mixed(4, true);
            let max_inline = width.max_inline();
            let past_inline = max_inline + 1;
            let base_side = row.side_table_len();
            for d in [
                past_inline,
                300,
                max_inline,
                7,
                UNREACHABLE_DISTANCE,
                past_inline,
                MAX_PACKED_DISTANCE as u16,
            ] {
                row.set_distance(4, d);
                assert_eq!(row.raw_distance(4), d);
                assert_eq!(row.raw_distance(5), sc.distance[5].unwrap() as u16);
                assert!(row.is_mixed(4), "a move must keep the mixed flag");
                assert!(!row.is_mixed(5));
                let in_side = d > max_inline && d != UNREACHABLE_DISTANCE;
                assert_eq!(
                    row.side_table_len(),
                    base_side + usize::from(in_side),
                    "{} bits, distance {d}",
                    width.bits()
                );
            }
            // Inserts on either side of an entry keep the table sorted: the
            // patched row equals one packed with the same distances.
            row.set_distance(10, 400);
            row.set_distance(1, 500);
            row.set_distance(4, 260);
            row.set_distance(5, max_inline);
            let packed = CompatRow::pack(row.source(), row.kind(), width, 11, |v| {
                (row.is_compatible(v), row.distance(v), row.is_mixed(v))
            });
            assert_eq!(packed.lane, row.lane, "{} bits", width.bits());
            assert_eq!(packed.side, row.side);
            assert_eq!(packed, row);
            assert_eq!(row.raw_distance(1), 500);
            assert_eq!(row.raw_distance(10), 400);
            assert_eq!(row.raw_distance(5), max_inline);
        }
    }

    #[test]
    fn packer_builds_the_packed_row_in_any_reach_order() {
        // Nodes 3k+2 stay unreached; the first `far` nodes sit past the
        // 4-bit or the 8-bit inline range. 41 nodes with three far keep
        // 4-bit codes (and a spare slot); 40 with twenty far take 8-bit.
        for (nodes, far) in [(41usize, 3usize), (40, 20), (9, 0)] {
            let distance = |v: usize| match (v % 3, v < far, v & 1) {
                (2, _, _) => None,
                (_, true, 0) => Some(14 + v as u32),
                (_, true, _) => Some(254 + v as u32),
                _ => Some((v % 14) as u32),
            };
            let (bit, mixed) = (|v: usize| v % 4 == 1, |v: usize| v % 5 == 1);
            for compatible in [false, true] {
                // Reached out of node order, as a BFS reaches them.
                let mut packer =
                    RowPacker::new(NodeId::new(1), CompatibilityKind::Spa, nodes, compatible);
                for v in (0..nodes).rev() {
                    if let Some(d) = distance(v) {
                        packer.reach(v, bit(v), d, mixed(v));
                    }
                }
                let row = packer.finish();
                let width = LaneWidth::fitting(nodes, (0..nodes).filter_map(distance));
                let packed =
                    CompatRow::pack(NodeId::new(1), CompatibilityKind::Spa, width, nodes, |v| {
                        let d = distance(v);
                        (
                            compatible || d.is_some() && bit(v),
                            d,
                            d.is_some() && mixed(v),
                        )
                    });
                assert_eq!(row.width, packed.width, "{nodes} nodes");
                assert_eq!(
                    (&row.bits, &row.mixed, &row.lane, &row.side),
                    (&packed.bits, &packed.mixed, &packed.lane, &packed.side),
                    "{nodes} nodes, compatible {compatible}"
                );
                assert_eq!(row.side.capacity(), row.side.len());
            }
        }
    }

    #[test]
    fn rows_compare_by_facts_across_widths() {
        let sc = sample(20);
        let pack = |width| {
            CompatRow::pack(sc.source, sc.kind, width, 20, |v| {
                (sc.compatible[v], sc.distance[v], v == 6)
            })
        };
        let (nibble, byte) = (pack(LaneWidth::NIBBLE), pack(LaneWidth::BYTE));
        assert_ne!(nibble.lane_bytes(), byte.lane_bytes());
        assert_eq!(nibble, byte);
        let mut moved = byte.clone();
        moved.set_distance(8, 3);
        assert_ne!(nibble, moved, "a different distance");
        let mut flagged = byte;
        flagged.set_mixed(7, true);
        assert_ne!(nibble, flagged, "a different mixed flag");
    }

    #[test]
    fn intersection_count_and_mean_distance() {
        let row = CompatRow::from_source(&sample(70));
        let mut pool = vec![0u64; bitset_words(70)];
        for v in [1usize, 2, 4, 66] {
            pool[v / 64] |= 1 << (v % 64);
        }
        let expected = [1usize, 2, 4, 66]
            .iter()
            .filter(|&&v| row.is_compatible(v))
            .count();
        assert_eq!(row.intersection_count(&pool), expected);
        let sc = row.to_source();
        assert_eq!(
            row.mean_compatible_distance(),
            sc.mean_compatible_distance()
        );
    }
}
