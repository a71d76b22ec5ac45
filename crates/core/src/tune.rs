//! Persisted per-shape tuning tables (`srm::tune`).
//!
//! The paper's switch points (64 KB small/large, 8–32 KB pipelined
//! sub-range) were hand-measured on one machine. This module makes
//! them *searchable*: an offline driver (the `autotune` bench binary)
//! sweeps the decision knobs of [`SrmTuning`] per **(operation, payload
//! size class, topology shape, communicator size)** over the simulator
//! and persists the winners in a [`TuneTable`] — a versioned,
//! deterministic, plain-text decision table.
//! [`crate::SrmWorld::with_tuning_table`] loads one, and the
//! planner consults it at [`PlanKey`](crate::PlanKey) resolution, so
//! each call shape compiles with its own thresholds instead of one
//! global struct.
//!
//! ## Decision vs. geometry knobs
//!
//! Only knobs that steer *which schedule is compiled* may vary per
//! shape (the [`TuneEntry`] fields). Knobs fixed **at world
//! construction** — `plan_cache_cap`, `tree`, `trace_steps` — stay
//! world-global, and the contribution buffers' size is a constant
//! ([`SrmTuning::REDUCE_CHUNK`]). The world instead builds a **geometry
//! envelope**: capacity-relevant decision knobs
//! (`small_large_switch`, `pairwise_chunk`) are
//! raised to the table's maxima so every entry's schedule fits the
//! buffers actually allocated. What the geometry itself decides — the
//! large broadcast's put size (one `SMP_BUF` cell) and the
//! small allreduce's cap (one `REDUCE_CHUNK`) — has no column.
//!
//! ## Table file format
//!
//! Line-oriented text, `srm-tune-table v3` (v3 dropped the
//! `large_chunk` and `allreduce_rd_max` columns, v2 had added the
//! `pairwise_direct_min` route knob; v1 and v2 files are rejected —
//! re-search to regenerate):
//!
//! ```text
//! srm-tune-table v3
//! seed 42
//! grid nodes=4 tasks=2 ops=bcast,allreduce
//! edges 4096 65536 1048576
//! entry op=bcast class=1 nodes=4 ranks=8 small_large_switch=131072 ...
//! ```
//!
//! `edges` are ascending upper bounds of the size classes (a payload
//! falls in the first class whose edge is ≥ its length; anything
//! larger lands in the open-ended last class). Entries are keyed
//! `(op, class, nodes, ranks)` and stored sorted, so serialization is
//! canonical: the same searched decisions always produce byte-identical
//! files. `nodes=0 ranks=0` is the wildcard row for an operation/class
//! pair. No OS entropy is involved anywhere — same (grid spec, seed)
//! → byte-identical table.

use crate::tuning::{SrmTuning, TuningError};
use std::collections::BTreeMap;
use std::fmt;

/// The operations a tuning table can hold entries for: the ten
/// collectives.
pub use collops::Op as TuneOp;

/// A table row's key: which calls the entry applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TuneKey {
    /// The collective operation.
    pub op: TuneOp,
    /// Size-class index into the table's `edges` (the class containing
    /// the payload length; `edges.len()` is the open-ended last class).
    pub class: usize,
    /// Node count the entry was searched on; 0 = any (wildcard).
    pub nodes: usize,
    /// Communicator size the entry was searched on; 0 = any (wildcard).
    pub ranks: usize,
}

/// The per-shape **decision** knobs — the subset of [`SrmTuning`] a
/// table entry may override. Everything else (buffer geometry, tree
/// kind, cache sizing) stays world-global; see the module docs for
/// why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneEntry {
    /// Small/large broadcast protocol switch.
    pub small_large_switch: usize,
    /// Lower bound of the pipelined small-broadcast sub-range.
    pub pipeline_min: usize,
    /// Upper bound of the pipelined small-broadcast sub-range.
    pub pipeline_max: usize,
    /// Chunk size inside the pipelined sub-range.
    pub pipeline_chunk: usize,
    /// Ignored: the allreduce switch it once set is gone. It keeps its
    /// column in the text format until ROADMAP item 8(g) removes it.
    pub allreduce_rs_min: usize,
    /// Interrupt-disable payload cap: calls up to it run their wire
    /// ranks with interrupts off; `usize::MAX` (`off` in table files,
    /// the default) is no cap, 0 keeps interrupts on.
    pub interrupt_disable_max: usize,
    /// Piece size of reduce_scatter's streams and of the intra-node
    /// cells of alltoall/alltoallv.
    pub pairwise_chunk: usize,
    /// Ignored: the staged reduce_scatter's landings are two credited
    /// sides, so the window it once set is gone. It keeps its column in
    /// the text format until ROADMAP item 1(h) removes it.
    pub pairwise_window: usize,
    /// reduce_scatter's direct-route switch: segments at or above this
    /// size skip the credited `Ring` landings and put straight into the
    /// destination master's scratch buffer; `usize::MAX` (`off` in
    /// table files) disables the direct route for the shape. Alltoall
    /// and alltoallv are direct at every size and ignore it.
    pub pairwise_direct_min: usize,
}

/// Field names in serialization order, paired off by
/// [`TuneEntry::get`] / [`TuneEntry::set`].
const ENTRY_FIELDS: [&str; 9] = [
    "small_large_switch",
    "pipeline_min",
    "pipeline_max",
    "pipeline_chunk",
    "allreduce_rs_min",
    "interrupt_disable_max",
    "pairwise_chunk",
    "pairwise_window",
    "pairwise_direct_min",
];

impl TuneEntry {
    /// The decision knobs of `t`, verbatim (the ignored
    /// `allreduce_rs_min` and `pairwise_window` read `usize::MAX`).
    pub fn from_tuning(t: &SrmTuning) -> TuneEntry {
        TuneEntry {
            small_large_switch: t.small_large_switch,
            pipeline_min: t.pipeline_min,
            pipeline_max: t.pipeline_max,
            pipeline_chunk: t.pipeline_chunk,
            allreduce_rs_min: usize::MAX,
            interrupt_disable_max: t.interrupt_disable_max,
            pairwise_chunk: t.pairwise_chunk,
            pairwise_window: usize::MAX,
            pairwise_direct_min: t.pairwise_direct_min,
        }
    }

    /// Overlay this entry on `base` (the world's decision defaults),
    /// clamped to `geometry` (the world's buffer envelope) so the
    /// result can never address past an allocated buffer:
    /// chunk/threshold knobs are capped at the envelope's and the
    /// pipeline range is kept internally consistent. The result always
    /// passes [`SrmTuning::validate`] when `geometry` does.
    pub fn apply(&self, base: &SrmTuning, geometry: &SrmTuning) -> SrmTuning {
        let sls = self
            .small_large_switch
            .clamp(1, geometry.small_large_switch);
        let pmax = self.pipeline_max.min(sls);
        let pmin = self.pipeline_min.min(pmax);
        let pchunk = self.pipeline_chunk.clamp(1, sls);
        let pw_cap = geometry.pairwise_chunk.min(SrmTuning::REDUCE_CHUNK);
        SrmTuning {
            small_large_switch: sls,
            pipeline_min: pmin,
            pipeline_max: pmax,
            pipeline_chunk: pchunk,
            interrupt_disable_max: self.interrupt_disable_max,
            pairwise_chunk: self.pairwise_chunk.clamp(1, pw_cap),
            // Pure route decision — no buffer is sized from it, so it
            // passes through unclamped.
            pairwise_direct_min: self.pairwise_direct_min,
            ..*base
        }
    }

    fn get(&self, field: &str) -> usize {
        match field {
            "small_large_switch" => self.small_large_switch,
            "pipeline_min" => self.pipeline_min,
            "pipeline_max" => self.pipeline_max,
            "pipeline_chunk" => self.pipeline_chunk,
            "allreduce_rs_min" => self.allreduce_rs_min,
            "interrupt_disable_max" => self.interrupt_disable_max,
            "pairwise_chunk" => self.pairwise_chunk,
            "pairwise_window" => self.pairwise_window,
            "pairwise_direct_min" => self.pairwise_direct_min,
            _ => unreachable!("unknown entry field {field}"),
        }
    }

    fn set(&mut self, field: &str, v: usize) -> bool {
        match field {
            "small_large_switch" => self.small_large_switch = v,
            "pipeline_min" => self.pipeline_min = v,
            "pipeline_max" => self.pipeline_max = v,
            "pipeline_chunk" => self.pipeline_chunk = v,
            "allreduce_rs_min" => self.allreduce_rs_min = v,
            "interrupt_disable_max" => self.interrupt_disable_max = v,
            "pairwise_chunk" => self.pairwise_chunk = v,
            "pairwise_window" => self.pairwise_window = v,
            "pairwise_direct_min" => self.pairwise_direct_min = v,
            _ => return false,
        }
        true
    }
}

/// A malformed table file: the 1-based line where parsing failed and
/// what was wrong with it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableParseError {
    /// 1-based line number (0 for a missing header).
    pub line: usize,
    /// What was wrong.
    pub what: &'static str,
}

impl fmt::Display for TableParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tune table line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for TableParseError {}

/// An entry whose knobs are inconsistent with the base tuning it is
/// being loaded over (returned by [`TuneTable::validate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneEntryError {
    /// Which entry.
    pub key: TuneKey,
    /// The underlying knob inconsistency.
    pub err: TuningError,
}

impl fmt::Display for TuneEntryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tune entry op={} class={} nodes={} ranks={}: {}",
            self.key.op.as_str(),
            self.key.class,
            self.key.nodes,
            self.key.ranks,
            self.err
        )
    }
}

impl std::error::Error for TuneEntryError {}

const HEADER: &str = "srm-tune-table v3";

/// A searched, persisted per-shape tuning table. See the module docs
/// for the file format and the decision/geometry split.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TuneTable {
    /// Seed the search ran with (provenance; replaying the search with
    /// this seed and the same grid reproduces the table byte for byte).
    pub seed: u64,
    /// Free-form one-line description of the search grid (provenance).
    pub grid: String,
    /// Ascending upper bounds of the payload size classes.
    pub edges: Vec<usize>,
    /// The searched decisions, canonically ordered.
    pub entries: BTreeMap<TuneKey, TuneEntry>,
}

impl TuneTable {
    /// Empty table with the given size-class edges (must be strictly
    /// ascending).
    pub fn new(seed: u64, grid: impl Into<String>, edges: Vec<usize>) -> TuneTable {
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "size-class edges must be strictly ascending"
        );
        TuneTable {
            seed,
            grid: grid.into(),
            edges,
            entries: BTreeMap::new(),
        }
    }

    /// The size class of a payload of `len` bytes: the first class
    /// whose edge is ≥ `len`, or the open-ended class `edges.len()`.
    pub fn size_class(&self, len: usize) -> usize {
        self.edges
            .iter()
            .position(|&e| len <= e)
            .unwrap_or(self.edges.len())
    }

    /// Insert (or replace) an entry.
    pub fn insert(&mut self, key: TuneKey, entry: TuneEntry) {
        self.entries.insert(key, entry);
    }

    /// The entry governing `(op, len, nodes, ranks)`: an exact
    /// `(op, class, nodes, ranks)` row if present, else the
    /// `nodes=0 ranks=0` wildcard row for the class, else `None`.
    pub fn lookup(&self, op: TuneOp, len: usize, nodes: usize, ranks: usize) -> Option<&TuneEntry> {
        let class = self.size_class(len);
        self.entries
            .get(&TuneKey {
                op,
                class,
                nodes,
                ranks,
            })
            .or_else(|| {
                self.entries.get(&TuneKey {
                    op,
                    class,
                    nodes: 0,
                    ranks: 0,
                })
            })
    }

    /// Check every entry against the base tuning it would be loaded
    /// over: the merged per-shape tuning must itself be valid (chunks
    /// fit the base buffers, ranges consistent).
    pub fn validate(&self, base: &SrmTuning) -> Result<(), TuneEntryError> {
        for (key, entry) in &self.entries {
            let merged = SrmTuning {
                small_large_switch: entry.small_large_switch,
                pipeline_min: entry.pipeline_min,
                pipeline_max: entry.pipeline_max,
                pipeline_chunk: entry.pipeline_chunk,
                interrupt_disable_max: entry.interrupt_disable_max,
                pairwise_chunk: entry.pairwise_chunk,
                pairwise_direct_min: entry.pairwise_direct_min,
                ..*base
            };
            merged
                .validate()
                .map_err(|err| TuneEntryError { key: *key, err })?;
        }
        Ok(())
    }

    /// The **geometry envelope** for loading this table over `base`:
    /// `base` with every capacity-relevant knob raised to the table's
    /// maximum, so buffers sized at world construction fit every
    /// entry's schedule. Valid whenever [`TuneTable::validate`]
    /// accepted the table (the maxima preserve each pairwise
    /// constraint the entries individually satisfy).
    pub fn geometry_envelope(&self, base: &SrmTuning) -> SrmTuning {
        let mut g = *base;
        for e in self.entries.values() {
            g.small_large_switch = g.small_large_switch.max(e.small_large_switch);
            g.pairwise_chunk = g.pairwise_chunk.max(e.pairwise_chunk);
            g.pipeline_max = g.pipeline_max.max(e.pipeline_max);
        }
        // The raised switch can only widen the pipeline headroom; the
        // raised pairwise chunk stays within the (fixed) reduce chunk
        // because validate() held per entry.
        g
    }

    /// Canonical serialization (see the module docs). Deterministic:
    /// the same table always renders the same bytes.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("seed {}\n", self.seed));
        if !self.grid.is_empty() {
            out.push_str(&format!("grid {}\n", self.grid));
        }
        out.push_str("edges");
        for e in &self.edges {
            out.push_str(&format!(" {e}"));
        }
        out.push('\n');
        for (k, e) in &self.entries {
            out.push_str(&format!(
                "entry op={} class={} nodes={} ranks={}",
                k.op.as_str(),
                k.class,
                k.nodes,
                k.ranks
            ));
            for f in ENTRY_FIELDS {
                let v = e.get(f);
                if v == usize::MAX {
                    out.push_str(&format!(" {f}=off"));
                } else {
                    out.push_str(&format!(" {f}={v}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parse a serialized table. Inverse of [`TuneTable::to_text`];
    /// blank lines and `#` comments are tolerated.
    pub fn parse(text: &str) -> Result<TuneTable, TableParseError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
        let (_, header) = lines.next().ok_or(TableParseError {
            line: 0,
            what: "empty file (expected `srm-tune-table v3` header)",
        })?;
        if header != HEADER {
            return Err(TableParseError {
                line: 1,
                what: "unsupported header (expected `srm-tune-table v3`)",
            });
        }
        let mut table = TuneTable::default();
        for (line, l) in lines {
            let mut words = l.split_ascii_whitespace();
            let tag = words.next().unwrap_or_default();
            match tag {
                "seed" => {
                    table.seed =
                        words
                            .next()
                            .and_then(|w| w.parse().ok())
                            .ok_or(TableParseError {
                                line,
                                what: "bad seed",
                            })?;
                }
                "grid" => {
                    table.grid = l["grid".len()..].trim().to_string();
                }
                "edges" => {
                    for w in words {
                        let e = w.parse().map_err(|_| TableParseError {
                            line,
                            what: "bad size-class edge",
                        })?;
                        if table.edges.last().is_some_and(|&p| p >= e) {
                            return Err(TableParseError {
                                line,
                                what: "size-class edges must be strictly ascending",
                            });
                        }
                        table.edges.push(e);
                    }
                }
                "entry" => {
                    let (key, entry) = parse_entry(line, words)?;
                    table.entries.insert(key, entry);
                }
                _ => {
                    return Err(TableParseError {
                        line,
                        what: "unknown line tag",
                    });
                }
            }
        }
        Ok(table)
    }
}

/// Parse the `k=v` words of one `entry` line.
fn parse_entry<'a>(
    line: usize,
    words: impl Iterator<Item = &'a str>,
) -> Result<(TuneKey, TuneEntry), TableParseError> {
    let bad = |what| TableParseError { line, what };
    let mut op = None;
    let mut class = None;
    let mut nodes = None;
    let mut ranks = None;
    let mut entry = TuneEntry::from_tuning(&SrmTuning::default());
    let mut seen = 0usize;
    for w in words {
        let (k, v) = w.split_once('=').ok_or_else(|| bad("expected key=value"))?;
        match k {
            "op" => op = Some(TuneOp::from_name(v).ok_or_else(|| bad("unknown op"))?),
            "class" => class = Some(v.parse().map_err(|_| bad("bad class"))?),
            "nodes" => nodes = Some(v.parse().map_err(|_| bad("bad nodes"))?),
            "ranks" => ranks = Some(v.parse().map_err(|_| bad("bad ranks"))?),
            _ => {
                let v = if v == "off" {
                    usize::MAX
                } else {
                    v.parse().map_err(|_| bad("bad knob value"))?
                };
                if !entry.set(k, v) {
                    return Err(bad("unknown knob"));
                }
                seen += 1;
            }
        }
    }
    if seen != ENTRY_FIELDS.len() {
        return Err(bad("entry must carry every decision knob"));
    }
    let key = TuneKey {
        op: op.ok_or_else(|| bad("entry missing op"))?,
        class: class.ok_or_else(|| bad("entry missing class"))?,
        nodes: nodes.ok_or_else(|| bad("entry missing nodes"))?,
        ranks: ranks.ok_or_else(|| bad("entry missing ranks"))?,
    };
    Ok((key, entry))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TuneTable {
        let mut t = TuneTable::new(42, "nodes=4 tasks=2", vec![4096, 65536, 1048576]);
        let d = SrmTuning::default();
        t.insert(
            TuneKey {
                op: TuneOp::Bcast,
                class: 1,
                nodes: 4,
                ranks: 8,
            },
            TuneEntry {
                pipeline_chunk: 8192,
                ..TuneEntry::from_tuning(&d)
            },
        );
        t.insert(
            TuneKey {
                op: TuneOp::Allreduce,
                class: 3,
                nodes: 0,
                ranks: 0,
            },
            TuneEntry {
                interrupt_disable_max: 0,
                ..TuneEntry::from_tuning(&d)
            },
        );
        t
    }

    #[test]
    fn size_classes() {
        let t = sample();
        assert_eq!(t.size_class(0), 0);
        assert_eq!(t.size_class(4096), 0);
        assert_eq!(t.size_class(4097), 1);
        assert_eq!(t.size_class(65536), 1);
        assert_eq!(t.size_class(1048576), 2);
        assert_eq!(t.size_class(1 << 30), 3);
    }

    #[test]
    fn lookup_exact_then_wildcard() {
        let t = sample();
        // Exact (op, class, nodes, ranks) row.
        assert_eq!(
            t.lookup(TuneOp::Bcast, 16 * 1024, 4, 8)
                .unwrap()
                .pipeline_chunk,
            8192
        );
        // Same class, different shape: no wildcard row -> miss.
        assert!(t.lookup(TuneOp::Bcast, 16 * 1024, 2, 4).is_none());
        // Wildcard row serves any shape.
        assert_eq!(
            t.lookup(TuneOp::Allreduce, 2 << 20, 7, 3)
                .unwrap()
                .interrupt_disable_max,
            0
        );
        // Other classes miss.
        assert!(t.lookup(TuneOp::Allreduce, 1024, 4, 8).is_none());
    }

    #[test]
    fn text_round_trip_is_identity() {
        let t = sample();
        let text = t.to_text();
        let back = TuneTable::parse(&text).unwrap();
        assert_eq!(back, t);
        // Canonical: re-serializing parses byte-identically.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(TuneTable::parse("").unwrap_err().line, 0);
        assert_eq!(TuneTable::parse("nonsense v9").unwrap_err().line, 1);
        // Tables of an older format carry columns v3 dropped.
        assert_eq!(TuneTable::parse("srm-tune-table v2").unwrap_err().line, 1);
        let bad_entry = format!("{HEADER}\nedges 4096\nentry op=bcast class=0 nodes=0");
        assert!(TuneTable::parse(&bad_entry).is_err());
        let bad_knob = format!("{HEADER}\nentry op=bcast class=0 nodes=0 ranks=0 bogus_knob=7");
        assert!(TuneTable::parse(&bad_knob).is_err());
        let bad_edges = format!("{HEADER}\nedges 4096 4096");
        assert!(TuneTable::parse(&bad_edges).is_err());
    }

    #[test]
    fn validate_catches_inconsistent_entry() {
        let mut t = sample();
        let base = SrmTuning::default();
        assert_eq!(t.validate(&base), Ok(()));
        t.insert(
            TuneKey {
                op: TuneOp::Alltoall,
                class: 0,
                nodes: 0,
                ranks: 0,
            },
            TuneEntry {
                pairwise_chunk: SrmTuning::REDUCE_CHUNK + 1,
                ..TuneEntry::from_tuning(&base)
            },
        );
        let err = t.validate(&base).unwrap_err();
        assert_eq!(err.err, TuningError::PairwiseChunkInvalid);
        assert_eq!(err.key.op, TuneOp::Alltoall);
    }

    #[test]
    fn apply_clamps_to_geometry() {
        let base = SrmTuning::default();
        let geom = base; // envelope == base
        let wild = TuneEntry {
            small_large_switch: base.small_large_switch * 4,
            pipeline_max: base.small_large_switch * 8,
            pipeline_min: base.small_large_switch * 8,
            pipeline_chunk: 0,
            allreduce_rs_min: 1,
            interrupt_disable_max: 0,
            pairwise_chunk: SrmTuning::REDUCE_CHUNK * 2,
            pairwise_window: 0,
            pairwise_direct_min: 1,
        };
        let eff = wild.apply(&base, &geom);
        assert_eq!(eff.validate(), Ok(()));
        assert_eq!(eff.small_large_switch, geom.small_large_switch);
        assert_eq!(eff.pipeline_max, geom.small_large_switch);
        assert_eq!(eff.pairwise_chunk, geom.pairwise_chunk);
        // Route decision passes through unclamped.
        assert_eq!(eff.pairwise_direct_min, 1);
    }

    #[test]
    fn envelope_raises_capacities() {
        let base = SrmTuning::default();
        let mut t = sample();
        t.insert(
            TuneKey {
                op: TuneOp::Bcast,
                class: 2,
                nodes: 0,
                ranks: 0,
            },
            TuneEntry {
                small_large_switch: 128 * 1024,
                pipeline_max: 128 * 1024,
                ..TuneEntry::from_tuning(&base)
            },
        );
        let g = t.geometry_envelope(&base);
        assert_eq!(g.small_large_switch, 128 * 1024);
        assert_eq!(g.pipeline_max, 128 * 1024);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn shape_mapping() {
        // A call looks its entry up by the shape's operation and
        // classing length (`SrmComm::tune_consult`).
        use collops::Shape as S;
        let t = sample();
        let hit = |s: S| t.lookup(s.op(), s.class_len(), 4, 8).is_some();
        assert!(hit(S::Bcast {
            len: 16 << 10,
            root: 3
        }));
        assert!(!hit(S::Bcast { len: 7, root: 3 }));
        assert!(hit(S::Allreduce { len: 2 << 20 }));
        assert!(!hit(S::Barrier));
        for op in TuneOp::ALL {
            assert_eq!(TuneOp::from_name(op.as_str()), Some(op));
        }
    }
}
