//! The bit-packed compatibility row: the resident representation every
//! relation is served from.
//!
//! A [`super::SourceCompatibility`] (the unpacked output of the per-relation
//! algorithms) stores one `bool` plus one `Option<u32>` per node — 9 bytes
//! per node. [`CompatRow`] packs the same facts into
//!
//! * a `u64`-word **bitset** for the compatible set (1 bit per node),
//! * a one-byte **lane** per node: bits 0–6 hold the distance (0..=125
//!   inline, 126 = "exact distance in the side table", 127 = unreachable)
//!   and bit 7 is the SP **mixed** flag (the node has both positive and
//!   negative shortest paths from the source), and
//! * a sorted **side table** of `(node, u16 distance)` entries for the rare
//!   distances past the inline range (relation distances are BFS levels:
//!   5–6 at most on the benchmark deployments),
//!
//! for ~1.1 bytes per node — an ~8× smaller resident row. The layout is not
//! only smaller: the bitset makes set operations word-parallel, which is
//! what the greedy solver's [`crate::team::CandidateMask`] fast path, the
//! popcount-based pair statistics and the skill-degree computation exploit.
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

/// Largest distance stored inline in a lane byte; longer distances live in
/// the row's side table.
pub(crate) const MAX_INLINE_DISTANCE: u16 = 125;

/// Lane code: the exact distance is in the side table.
const SIDE_TABLE_CODE: u8 = 126;
/// Lane code: no defined distance.
const UNREACHABLE_CODE: u8 = 127;
/// Bits 0–6 of a lane byte: the distance code.
const DISTANCE_MASK: u8 = 0x7f;
/// Bit 7 of a lane byte: the SP mixed flag.
const MIXED_FLAG: u8 = 0x80;

/// One side-table entry: a node and its exact (saturated) distance.
pub(crate) type SideEntry = (u32, u16);

/// Number of `u64` words needed for a bitset over `nodes` bits.
pub const fn bitset_words(nodes: usize) -> usize {
    nodes.div_ceil(64)
}

/// One source's compatibility row in the bit-packed resident layout: who is
/// compatible with the source (1 bit per node), at what distance and with
/// which SP mixed flag (1 byte per node, plus side-table entries for
/// distances past 125). See the module docs for the byte math.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompatRow {
    source: NodeId,
    kind: CompatibilityKind,
    nodes: usize,
    bits: Vec<u64>,
    lane: Vec<u8>,
    /// Sorted by node: the exact distances of lanes coded
    /// `SIDE_TABLE_CODE`.
    side: Vec<SideEntry>,
}

impl CompatRow {
    /// Packs a row node by node: `entry(v)` gives `v`'s compatibility bit,
    /// distance and mixed flag. Nodes arrive in ascending order, so
    /// side-table entries are appended already sorted.
    pub(crate) fn pack(
        source: NodeId,
        kind: CompatibilityKind,
        nodes: usize,
        mut entry: impl FnMut(usize) -> (bool, Option<u32>, bool),
    ) -> Self {
        let mut bits = vec![0u64; bitset_words(nodes)];
        let mut lane = Vec::with_capacity(nodes);
        let mut side = Vec::new();
        for v in 0..nodes {
            let (compatible, distance, mixed) = entry(v);
            if compatible {
                bits[v / 64] |= 1u64 << (v % 64);
            }
            let code = match distance {
                None => UNREACHABLE_CODE,
                Some(d) if d <= u32::from(MAX_INLINE_DISTANCE) => d as u8,
                Some(d) => {
                    side.push((v as u32, d.min(MAX_PACKED_DISTANCE) as u16));
                    SIDE_TABLE_CODE
                }
            };
            lane.push(if mixed { code | MIXED_FLAG } else { code });
        }
        side.shrink_to_fit();
        CompatRow {
            source,
            kind,
            nodes,
            bits,
            lane,
            side,
        }
    }

    /// Packs an unpacked per-source computation into the resident layout.
    /// A [`SourceCompatibility`] carries no path-sign classes, so the mixed
    /// flags stay clear.
    pub fn from_source(sc: &SourceCompatibility) -> Self {
        Self::pack(sc.source, sc.kind, sc.compatible.len(), |v| {
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
        let Some(&byte) = self.lane.get(v) else {
            return UNREACHABLE_DISTANCE;
        };
        match byte & DISTANCE_MASK {
            UNREACHABLE_CODE => UNREACHABLE_DISTANCE,
            SIDE_TABLE_CODE => self.side_distance(v),
            d => u16::from(d),
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
        self.lane[v] & MIXED_FLAG != 0
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
    /// inline range.
    pub(crate) fn set_distance(&mut self, v: usize, raw_distance: u16) {
        debug_assert!(v < self.nodes);
        let code = match raw_distance {
            UNREACHABLE_DISTANCE => UNREACHABLE_CODE,
            d if d <= MAX_INLINE_DISTANCE => d as u8,
            _ => SIDE_TABLE_CODE,
        };
        let in_side = self.lane[v] & DISTANCE_MASK == SIDE_TABLE_CODE;
        if in_side || code == SIDE_TABLE_CODE {
            let slot = self
                .side
                .binary_search_by_key(&(v as u32), |&(node, _)| node);
            let exact = raw_distance.min(MAX_PACKED_DISTANCE as u16);
            match (slot, code == SIDE_TABLE_CODE) {
                (Ok(i), true) => self.side[i].1 = exact,
                (Err(i), true) => self.side.insert(i, (v as u32, exact)),
                (Ok(i), false) => {
                    self.side.remove(i);
                }
                (Err(_), false) => {}
            }
        }
        self.lane[v] = (self.lane[v] & MIXED_FLAG) | code;
    }

    /// Sets or clears the compatibility bit of `v`.
    pub(crate) fn set_compatible(&mut self, v: usize, compatible: bool) {
        debug_assert!(v < self.nodes);
        let (word, bit) = (v / 64, 1u64 << (v % 64));
        if compatible {
            self.bits[word] |= bit;
        } else {
            self.bits[word] &= !bit;
        }
    }

    /// Sets or clears the SP mixed flag of `v`.
    pub(crate) fn set_mixed(&mut self, v: usize, mixed: bool) {
        if mixed {
            self.lane[v] |= MIXED_FLAG;
        } else {
            self.lane[v] &= !MIXED_FLAG;
        }
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

/// A plain mutable bitset over node ids, sharing [`CompatRow`]'s word
/// indexing — the one implementation behind every "is this node in the
/// set?" probe outside the rows themselves (the greedy relevance pool, the
/// SBPH search's scratch marks).
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

    /// Removes `v` (ignores out-of-range ids).
    pub fn remove(&mut self, v: NodeId) {
        let v = v.index();
        if v / 64 < self.words.len() {
            self.words[v / 64] &= !(1u64 << (v % 64));
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
    fn set_distance_moves_entries_through_the_side_table() {
        let mut row = CompatRow::from_source(&sample(10));
        row.set_mixed(4, true);
        let past_inline = MAX_INLINE_DISTANCE + 1;
        for d in [
            past_inline,
            300,
            MAX_INLINE_DISTANCE,
            7,
            UNREACHABLE_DISTANCE,
            past_inline,
            MAX_PACKED_DISTANCE as u16,
        ] {
            row.set_distance(4, d);
            assert_eq!(row.raw_distance(4), d);
            assert!(row.is_mixed(4), "a move must keep the mixed flag");
            assert!(!row.is_mixed(5));
            let in_side = d > MAX_INLINE_DISTANCE && d != UNREACHABLE_DISTANCE;
            assert_eq!(row.side_table_len(), usize::from(in_side), "distance {d}");
        }
        // Inserts on either side of an entry keep the table sorted: the
        // patched row equals one packed with the same distances.
        row.set_distance(9, 200);
        row.set_distance(1, 500);
        row.set_distance(4, 130);
        assert_eq!(row.side_table_len(), 3);
        let packed = CompatRow::pack(row.source(), row.kind(), 10, |v| {
            (row.is_compatible(v), row.distance(v), row.is_mixed(v))
        });
        assert_eq!(packed, row);
        assert_eq!(row.raw_distance(1), 500);
        assert_eq!(row.raw_distance(9), 200);
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
