//! Co-iteration over fibers: streaming intersection and union.
//!
//! Sparse accelerators "sparsify" the iteration space (paper §2.4) by
//! co-iterating the operands of each loop rank. Multiplicative operands are
//! *intersected* (a point contributes only when all operands are present);
//! additive operands are *unioned*. The hardware that performs intersection
//! varies across designs, so the [`IntersectPolicy`] names the three unit
//! types of Table 3 — two-finger, leader-follower, and skip-ahead — and
//! the stream reports the number of coordinate comparisons ("work") the
//! modelled unit spends.
//!
//! Co-iteration is a *streaming dataflow of coordinate cursors* (in the
//! spirit of the Sparse Abstract Machine): [`intersect_stream`] and
//! [`union_stream`] are lazy iterators over compressed-fiber
//! [`FiberView`] cursors that emit one match at a time, never
//! materializing a match list; the simulator's engine consumes them
//! directly, and collecting one into a `Vec` is the eager form.
//! [`IntersectStream`] is the one intersection unit: it reads one or two
//! point fibers as raw coordinate runs ([`crate::PointRun`]), as SAM's
//! scanners and intersecters do, and joins more fibers (or tuple
//! levels) as a cascade of two-input stages, charging both alike.

use serde::{Deserialize, Serialize};

use crate::coord::Coord;
use crate::view::{CoordKey, FiberView, PointRun};

/// The intersection unit type (Table 3 of the paper).
///
/// [`IntersectStream`] charges a two-finger merge one comparison per
/// pointer advance and a leader-follower unit one probe per element of
/// the leading input. Fiber 0 always leads: `restart` reads only
/// whether the policy is leader-follower, so `LeaderFollower { leader: 1 }`
/// charges what `leader: 0` does. The analytical estimator
/// (`teaal_sim::estimate`) charges the occupancy of input `leader`
/// instead, so a design that sets `leader: 1` (the graph Proposal's
/// `FrontierIx`) is estimated and measured with different leaders.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize, Default)]
pub enum IntersectPolicy {
    /// Classic merge: two pointers advance one coordinate at a time.
    #[default]
    TwoFinger,
    /// The leader's coordinates are looked up in the followers; work is
    /// proportional to the leader's occupancy.
    LeaderFollower {
        /// Index of the leading operand (read by the estimator only; the
        /// engine leads with fiber 0).
        leader: usize,
    },
    /// Galloping/skip-ahead, modelling ExTensor-style skip-ahead
    /// intersection.
    ///
    /// [`IntersectStream`] charges skip-ahead exactly as a two-finger
    /// merge. The analytical estimator (`teaal_sim::estimate`) charges a
    /// gallop, `cmin · (1 + log2(1 + cmax / cmin))` per fiber pair, so
    /// ExTensor's estimated and measured intersection counts disagree by
    /// construction.
    SkipAhead,
}

/// Result of co-iterating fibers: the work metric charged to the
/// intersection unit plus the number of emitted coordinates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CoIterStats {
    /// Number of coordinate comparisons performed by the modelled unit.
    pub comparisons: u64,
    /// Number of coordinates emitted (i.e. matches for intersection).
    pub matches: u64,
}

// ---------------------------------------------------------------------------
// Intersection: raw-run kernels and a lazy cascade of two-input stages.
// ---------------------------------------------------------------------------

/// Lazy multi-input intersection: yields, per matching coordinate, the
/// per-fiber positions.
///
/// Structured as a cascade of two-input stages — fiber 0 feeds stage 1,
/// whose output feeds stage 2, and so on — which is how multi-way
/// intersections are built from two-input units in hardware, and is also
/// exactly how comparisons are charged: each stage counts as if it merged
/// the *complete* output of the previous stage, so the totals equal the
/// eager pairwise composition even though nothing is materialized. (A
/// stage whose own fiber exhausts silently drains its upstream to keep
/// that equivalence.)
///
/// The stream fills one positions buffer in place: [`IntersectStream::advance`]
/// returns the matching coordinate and [`IntersectStream::positions`] holds
/// its position in every fiber. [`IntersectStream::restart`] re-arms the
/// same stream over new fibers, so a caller that keeps one stream per loop
/// level allocates only on first use. The [`Iterator`] impl materializes
/// each match for callers that want owned rows.
///
/// One or two point fibers (see [`FiberView::point_run`]) in an
/// unbounded stream skip the cascade: the stream scans one raw run, or
/// merges (two-finger, skip-ahead) or probes (leader-follower) two, by
/// direct integer compares. That choice follows from the fibers' shape
/// alone, and positions, matches and comparisons equal the cascade's.
#[derive(Clone, Debug, Default)]
pub struct IntersectStream<'a> {
    /// What `advance` runs, chosen by `restart`.
    kernel: Kernel<'a>,
    /// Fiber 0 is the source; fiber `k` is merged by stage `k` (cascade
    /// only).
    fibers: Vec<FiberView<'a>>,
    /// `stages[k - 1]` is the two-input unit merging fiber `k` (cascade
    /// only).
    stages: Vec<ManyStage<'a>>,
    /// Positions of the current match, one per fiber. While stage `k`
    /// holds an upstream match, `positions[..k]` are that match's.
    positions: Vec<usize>,
    /// The source's next position (in a run kernel, the first run's).
    source_pos: usize,
    /// A run kernel's next position in the second run.
    follow_pos: usize,
    /// A run kernel's comparisons.
    run_comparisons: u64,
    /// Emission from the source stops (uncharged) at the first coordinate
    /// `>= Point(limit)` — the shard boundary of a bounded stream.
    limit: Option<u64>,
    /// Leader-follower mode: stages probe instead of merging.
    probe: bool,
    matches: u64,
}

/// The loop an [`IntersectStream`] runs.
#[derive(Clone, Copy, Debug, Default)]
enum Kernel<'a> {
    /// The cascade of two-input stages over fiber cursors: tuple levels,
    /// more than two fibers, and bounded (shard) streams.
    #[default]
    Cascade,
    /// One point run, scanned.
    Scan(PointRun<'a>),
    /// Two point runs, merged two-finger.
    Merge(PointRun<'a>, PointRun<'a>),
    /// The first point run probing the second by binary search.
    Probe(PointRun<'a>, PointRun<'a>),
}

#[derive(Clone, Copy, Debug, Default)]
struct ManyStage<'a> {
    j: usize,
    comparisons: u64,
    /// The upstream match this stage is comparing against.
    left: Option<CoordKey<'a>>,
    /// Whether `left` was emitted, so the upstream must advance before
    /// the next comparison. Advancing lazily keeps the upstream from
    /// overwriting the emitted match's positions while the caller reads
    /// them.
    emitted: bool,
    primed: bool,
    done: bool,
}

impl<'a> IntersectStream<'a> {
    /// Re-arms the stream over `fibers` under `policy`, reusing its
    /// buffers. With `bounds = Some((lo, hi))` the stream emits only
    /// matches whose coordinate lies in `[lo, hi)`, with the shard-exact
    /// charging of [`intersect_stream_bounded`].
    ///
    /// # Panics
    ///
    /// Panics when `fibers` is empty, or when bounded with more than two
    /// fibers (see [`intersect_stream_bounded`]).
    pub fn restart(
        &mut self,
        fibers: &[FiberView<'a>],
        policy: IntersectPolicy,
        bounds: Option<(u64, u64)>,
    ) {
        assert!(
            !fibers.is_empty(),
            "intersect_stream needs at least one fiber"
        );
        self.positions.clear();
        self.positions.resize(fibers.len(), 0);
        self.probe = matches!(policy, IntersectPolicy::LeaderFollower { .. });
        self.matches = 0;
        self.source_pos = 0;
        self.follow_pos = 0;
        self.run_comparisons = 0;
        self.limit = None;
        self.stages.clear();
        self.kernel = match (fibers, bounds) {
            ([a], None) => a.point_run().map_or(Kernel::Cascade, Kernel::Scan),
            ([a, b], None) => match (a.point_run(), b.point_run()) {
                (Some(ra), Some(rb)) if self.probe => Kernel::Probe(ra, rb),
                (Some(ra), Some(rb)) => Kernel::Merge(ra, rb),
                _ => Kernel::Cascade,
            },
            _ => Kernel::Cascade,
        };
        if !matches!(self.kernel, Kernel::Cascade) {
            return;
        }
        self.fibers.clear();
        self.fibers.extend_from_slice(fibers);
        self.stages.resize(fibers.len() - 1, ManyStage::default());
        if let Some((lo, hi)) = bounds {
            assert!(
                fibers.len() <= 2,
                "bounded intersection is shard-exact for one or two fibers only"
            );
            let start = lower_bound_point(&fibers[0], lo);
            self.source_pos = start;
            self.limit = Some(hi);
            if let Some(f) = fibers.get(1) {
                // Where the sequential two-finger merge leaves the
                // follower after consuming every leader element below
                // `lo`: one past the last follower coordinate `<=` the
                // previous leader coordinate.
                if start > 0 {
                    let prev = fibers[0]
                        .coord_key_at(start - 1)
                        .as_point()
                        .expect("bounded intersection requires point coordinates");
                    self.stages[0].j = lower_bound_point(f, prev.saturating_add(1));
                }
            }
        }
    }

    /// Advances to the next match and returns its coordinate; its
    /// per-fiber positions are then in [`IntersectStream::positions`].
    pub fn advance(&mut self) -> Option<CoordKey<'a>> {
        let key = match self.kernel {
            Kernel::Cascade => {
                let top = self.fibers.len().checked_sub(1)?;
                self.pull(top)?
            }
            Kernel::Scan(run) => {
                let i = self.source_pos;
                if i >= run.len() {
                    return None;
                }
                self.positions[0] = i;
                self.source_pos = i + 1;
                CoordKey::Point(run.get(i))
            }
            Kernel::Merge(a, b) => CoordKey::Point(match (a, b) {
                (PointRun::U32(a), PointRun::U32(b)) => self.merge_runs(a, b),
                (PointRun::U32(a), PointRun::U64(b)) => self.merge_runs(a, b),
                (PointRun::U64(a), PointRun::U32(b)) => self.merge_runs(a, b),
                (PointRun::U64(a), PointRun::U64(b)) => self.merge_runs(a, b),
            }?),
            Kernel::Probe(a, b) => CoordKey::Point(match (a, b) {
                (PointRun::U32(a), PointRun::U32(b)) => self.probe_runs(a, b),
                (PointRun::U32(a), PointRun::U64(b)) => self.probe_runs(a, b),
                (PointRun::U64(a), PointRun::U32(b)) => self.probe_runs(a, b),
                (PointRun::U64(a), PointRun::U64(b)) => self.probe_runs(a, b),
            }?),
        };
        self.matches += 1;
        Some(key)
    }

    /// The two-finger merge of two runs: one comparison per step, the
    /// smaller side advancing. What the cascade's single stage does, with
    /// the source as `a`.
    #[inline]
    fn merge_runs<A, B>(&mut self, a: &[A], b: &[B]) -> Option<u64>
    where
        A: Copy + Into<u64>,
        B: Copy + Into<u64>,
    {
        let (mut i, mut j) = (self.source_pos, self.follow_pos);
        let mut comparisons = 0u64;
        let mut hit = None;
        while i < a.len() && j < b.len() {
            comparisons += 1;
            let (x, y): (u64, u64) = (a[i].into(), b[j].into());
            match x.cmp(&y) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    self.positions[0] = i;
                    self.positions[1] = j;
                    hit = Some(x);
                    i += 1;
                    j += 1;
                    break;
                }
            }
        }
        self.source_pos = i;
        self.follow_pos = j;
        self.run_comparisons += comparisons;
        hit
    }

    /// Leader-follower over two runs: every element of `a` costs one
    /// probe, a binary search of all of `b`.
    #[inline]
    fn probe_runs<A, B>(&mut self, a: &[A], b: &[B]) -> Option<u64>
    where
        A: Copy + Into<u64>,
        B: Copy + Into<u64>,
    {
        while self.source_pos < a.len() {
            let i = self.source_pos;
            self.source_pos += 1;
            self.run_comparisons += 1;
            let x: u64 = a[i].into();
            if let Ok(j) = b.binary_search_by(|&y| y.into().cmp(&x)) {
                self.positions[0] = i;
                self.positions[1] = j;
                return Some(x);
            }
        }
        None
    }

    /// Per-fiber positions of the match [`IntersectStream::advance`] last
    /// returned.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// The statistics accrued so far (complete after draining).
    pub fn stats(&self) -> CoIterStats {
        CoIterStats {
            comparisons: self.run_comparisons
                + self.stages.iter().map(|s| s.comparisons).sum::<u64>(),
            matches: self.matches,
        }
    }

    /// The next output of cascade node `k`: the source for `k = 0`, stage
    /// `k` otherwise. Writes `positions[..=k]`.
    fn pull(&mut self, k: usize) -> Option<CoordKey<'a>> {
        if k == 0 {
            let fiber = self.fibers[0];
            if self.source_pos >= fiber.occupancy() {
                return None;
            }
            let key = fiber.coord_key_at(self.source_pos);
            if let Some(h) = self.limit {
                if !key.cmp_key(&CoordKey::Point(h)).is_lt() {
                    return None;
                }
            }
            self.positions[0] = self.source_pos;
            self.source_pos += 1;
            return Some(key);
        }
        let s = k - 1;
        if self.stages[s].done {
            return None;
        }
        if !self.stages[s].primed || self.stages[s].emitted {
            self.stages[s].left = self.pull(k - 1);
            self.stages[s].primed = true;
            self.stages[s].emitted = false;
        }
        let fiber = self.fibers[k];
        if self.probe {
            // Leader-follower: every upstream match costs one probe of
            // this fiber, whether or not it hits.
            while let Some(c) = self.stages[s].left {
                self.stages[s].comparisons += 1;
                if let Some(pf) = fiber.position_of_key(&c) {
                    self.positions[k] = pf;
                    self.stages[s].emitted = true;
                    return Some(c);
                }
                self.stages[s].left = self.pull(k - 1);
            }
            self.stages[s].done = true;
            return None;
        }
        // Two-finger merge of the upstream stream against this fiber.
        loop {
            let Some(c) = self.stages[s].left else {
                // Upstream exhausted (and, by induction, fully drained).
                self.stages[s].done = true;
                return None;
            };
            let j = self.stages[s].j;
            if j >= fiber.occupancy() {
                // This fiber exhausted: the eager pairwise composition
                // still materializes the full upstream match list, so
                // drain it (charging its comparisons) without emitting.
                while self.pull(k - 1).is_some() {}
                self.stages[s].left = None;
                self.stages[s].done = true;
                return None;
            }
            self.stages[s].comparisons += 1;
            match c.cmp_key(&fiber.coord_key_at(j)) {
                std::cmp::Ordering::Equal => {
                    self.positions[k] = j;
                    self.stages[s].j = j + 1;
                    self.stages[s].emitted = true;
                    return Some(c);
                }
                std::cmp::Ordering::Less => self.stages[s].left = self.pull(k - 1),
                std::cmp::Ordering::Greater => self.stages[s].j = j + 1,
            }
        }
    }
}

/// Starts a lazy multi-input intersection of `fibers` under `policy`.
///
/// # Panics
///
/// Panics when `fibers` is empty.
pub fn intersect_stream<'a>(
    fibers: &[FiberView<'a>],
    policy: IntersectPolicy,
) -> IntersectStream<'a> {
    let mut s = IntersectStream::default();
    s.restart(fibers, policy, None);
    s
}

/// Binary search for the first position in `fiber` whose coordinate is
/// `>= Point(c)` (the whole fiber must hold point coordinates).
fn lower_bound_point(fiber: &FiberView<'_>, c: u64) -> usize {
    let target = CoordKey::Point(c);
    let (mut lo, mut hi) = (0usize, fiber.occupancy());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fiber.coord_key_at(mid).cmp_key(&target).is_lt() {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Starts a *bounded* lazy intersection emitting only matches whose
/// coordinate lies in `[lo, hi)` — one shard of a partitioned
/// co-iteration.
///
/// Positions stay absolute (identical to the unbounded stream), and the
/// comparison charging is **shard-exact**: running the same intersection
/// over a partition of `[0, ∞)` into consecutive `[lo, hi)` windows and
/// summing the per-shard [`CoIterStats`] reproduces the unbounded totals
/// bit for bit. That holds because the leader starts at the first
/// coordinate `>= lo` and stops uncharged at the first `>= hi`, while the
/// follower cursor is pre-positioned exactly where the sequential merge
/// would have left it after consuming every leader element below `lo`.
///
/// Fibers must hold point coordinates.
///
/// # Panics
///
/// Panics unless `fibers` holds one or two fibers: deeper cascades drain
/// exhausted stages past the window boundary, which would break the
/// charge-partition guarantee.
pub fn intersect_stream_bounded<'a>(
    fibers: &[FiberView<'a>],
    policy: IntersectPolicy,
    lo: u64,
    hi: u64,
) -> IntersectStream<'a> {
    let mut s = IntersectStream::default();
    s.restart(fibers, policy, Some((lo, hi)));
    s
}

impl Iterator for IntersectStream<'_> {
    type Item = (Coord, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        let key = self.advance()?;
        Some((key.to_coord(), self.positions.clone()))
    }
}

// ---------------------------------------------------------------------------
// Union.
// ---------------------------------------------------------------------------

/// One union result row: a coordinate plus, per input fiber, the position
/// of that coordinate when the fiber holds it.
pub type UnionMatch = (Coord, Vec<Option<usize>>);

/// Lazy multi-input union over fiber cursors: yields every coordinate
/// present in at least one fiber, with the per-fiber position when
/// present. One comparison is charged per live fiber per emitted
/// coordinate (the min-finding work of the merging sequencer).
///
/// Like [`IntersectStream`], it fills one positions buffer in place
/// ([`UnionStream::advance`], [`UnionStream::positions`]) and can be
/// re-armed with [`UnionStream::restart`] without allocating.
#[derive(Clone, Debug, Default)]
pub struct UnionStream<'a> {
    fibers: Vec<FiberView<'a>>,
    cursors: Vec<usize>,
    positions: Vec<Option<usize>>,
    stats: CoIterStats,
    limit: Option<u64>,
}

/// Starts a lazy union of `fibers`.
pub fn union_stream<'a>(fibers: &[FiberView<'a>]) -> UnionStream<'a> {
    let mut s = UnionStream::default();
    s.restart(fibers, None);
    s
}

/// Starts a *bounded* lazy union emitting only coordinates in `[lo, hi)`
/// — one shard of a partitioned co-iteration. Positions stay absolute,
/// and charging is **shard-exact** for any number of fibers: each
/// cursor starts at its fiber's first coordinate `>= lo`, and the
/// min-scan that would emit a coordinate `>= hi` charges nothing (the
/// next shard performs — and pays for — that scan itself). Fibers must
/// hold point coordinates.
pub fn union_stream_bounded<'a>(fibers: &[FiberView<'a>], lo: u64, hi: u64) -> UnionStream<'a> {
    let mut s = UnionStream::default();
    s.restart(fibers, Some((lo, hi)));
    s
}

impl<'a> UnionStream<'a> {
    /// Re-arms the stream over `fibers`, reusing its buffers; `bounds`
    /// as in [`union_stream_bounded`].
    pub fn restart(&mut self, fibers: &[FiberView<'a>], bounds: Option<(u64, u64)>) {
        self.fibers.clear();
        self.fibers.extend_from_slice(fibers);
        self.cursors.clear();
        match bounds {
            Some((lo, _)) => self
                .cursors
                .extend(fibers.iter().map(|f| lower_bound_point(f, lo))),
            None => self.cursors.resize(fibers.len(), 0),
        }
        self.positions.clear();
        self.positions.resize(fibers.len(), None);
        self.stats = CoIterStats::default();
        self.limit = bounds.map(|(_, hi)| hi);
    }

    /// Advances to the next coordinate and returns it; the per-fiber
    /// positions are then in [`UnionStream::positions`].
    pub fn advance(&mut self) -> Option<CoordKey<'a>> {
        // Find the minimum current coordinate across all fibers. Scan
        // charges are tallied locally and only committed on emission:
        // a bounded stream's final scan — the one that discovers the
        // boundary coordinate — is performed again (and paid for) by
        // the shard that owns that coordinate, so per-shard stats sum
        // exactly to the sequential stream's.
        let mut min: Option<CoordKey<'a>> = None;
        let mut scanned = 0u64;
        for (f, &cur) in self.fibers.iter().zip(&self.cursors) {
            if cur < f.occupancy() {
                scanned += 1;
                let key = f.coord_key_at(cur);
                match &min {
                    None => min = Some(key),
                    Some(m) if key.cmp_key(m).is_lt() => min = Some(key),
                    _ => {}
                }
            }
        }
        let min = min?;
        if let Some(h) = self.limit {
            if !min.cmp_key(&CoordKey::Point(h)).is_lt() {
                return None;
            }
        }
        self.stats.comparisons += scanned;
        for ((f, cur), pos) in self
            .fibers
            .iter()
            .zip(&mut self.cursors)
            .zip(&mut self.positions)
        {
            if *cur < f.occupancy() && f.coord_key_at(*cur).cmp_key(&min).is_eq() {
                *pos = Some(*cur);
                *cur += 1;
            } else {
                *pos = None;
            }
        }
        self.stats.matches += 1;
        Some(min)
    }

    /// Per-fiber positions of the coordinate [`UnionStream::advance`]
    /// last returned (`None` where the fiber lacks it).
    pub fn positions(&self) -> &[Option<usize>] {
        &self.positions
    }

    /// The statistics accrued so far (complete after draining).
    pub fn stats(&self) -> CoIterStats {
        self.stats.clone()
    }
}

impl Iterator for UnionStream<'_> {
    type Item = UnionMatch;

    fn next(&mut self) -> Option<Self::Item> {
        let key = self.advance()?;
        Some((key.to_coord(), self.positions.clone()))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::compressed::CompressedTensor;

    const POLICIES: [IntersectPolicy; 4] = [
        IntersectPolicy::TwoFinger,
        IntersectPolicy::LeaderFollower { leader: 0 },
        IntersectPolicy::LeaderFollower { leader: 1 },
        IntersectPolicy::SkipAhead,
    ];

    fn fiber(coords: &[u64]) -> CompressedTensor {
        CompressedTensor::from_entries(
            "F",
            &["K"],
            &[1000],
            coords.iter().map(|&c| (vec![c], c as f64 + 1.0)).collect(),
        )
        .expect("test fiber is valid")
    }

    fn view(t: &CompressedTensor) -> FiberView<'_> {
        t.root_fiber_view().expect("1-tensor")
    }

    /// Each fiber's coordinates mapped to their positions.
    fn positions(fibers: &[&[u64]]) -> Vec<BTreeMap<u64, usize>> {
        fibers
            .iter()
            .map(|f| f.iter().enumerate().map(|(i, &c)| (c, i)).collect())
            .collect()
    }

    /// The intersection oracle: every coordinate all fibers hold, with its
    /// position in each.
    fn oracle_intersection(fibers: &[&[u64]]) -> Vec<(Coord, Vec<usize>)> {
        let pos = positions(fibers);
        pos[0]
            .keys()
            .filter(|c| pos.iter().all(|m| m.contains_key(c)))
            .map(|c| (Coord::Point(*c), pos.iter().map(|m| m[c]).collect()))
            .collect()
    }

    /// The union oracle: every coordinate any fiber holds, with its
    /// position where present.
    fn oracle_union(fibers: &[&[u64]]) -> Vec<UnionMatch> {
        let pos = positions(fibers);
        let all: BTreeSet<u64> = pos.iter().flat_map(|m| m.keys().copied()).collect();
        all.into_iter()
            .map(|c| {
                (
                    Coord::Point(c),
                    pos.iter().map(|m| m.get(&c).copied()).collect(),
                )
            })
            .collect()
    }

    /// The textbook two-finger merge over plain coordinates: the matches,
    /// and one comparison per pointer advance.
    fn two_finger(a: &[u64], b: &[u64]) -> (Vec<u64>, u64) {
        let (mut i, mut j, mut comparisons) = (0, 0, 0);
        let mut out = Vec::new();
        while i < a.len() && j < b.len() {
            comparisons += 1;
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        (out, comparisons)
    }

    /// The textbook leader-follower unit: the leader's matches, and one
    /// probe per leader element.
    fn leader_follower(lead: &[u64], follow: &[u64]) -> (Vec<u64>, u64) {
        let out = lead
            .iter()
            .copied()
            .filter(|c| follow.binary_search(c).is_ok())
            .collect();
        (out, lead.len() as u64)
    }

    /// What the engine charges: the textbook unit, stage by stage, with
    /// fiber 0 leading and skip-ahead merging two-finger.
    fn textbook(fibers: &[&[u64]], policy: IntersectPolicy) -> CoIterStats {
        let mut upstream = fibers[0].to_vec();
        let mut comparisons = 0;
        for f in &fibers[1..] {
            let (out, c) = match policy {
                IntersectPolicy::LeaderFollower { .. } => leader_follower(&upstream, f),
                _ => two_finger(&upstream, f),
            };
            upstream = out;
            comparisons += c;
        }
        CoIterStats {
            comparisons,
            matches: upstream.len() as u64,
        }
    }

    /// Drains an intersection of `fibers`: unbounded (the raw-run kernels
    /// for one or two point fibers), or with `cascade` bounded to the
    /// whole coordinate space, which always runs the cascade.
    fn drain(
        fibers: &[&[u64]],
        policy: IntersectPolicy,
        cascade: bool,
    ) -> (Vec<(Coord, Vec<usize>)>, CoIterStats) {
        let ts: Vec<CompressedTensor> = fibers.iter().map(|f| fiber(f)).collect();
        let views: Vec<FiberView<'_>> = ts.iter().map(view).collect();
        let mut s = IntersectStream::default();
        s.restart(&views, policy, cascade.then_some((0, u64::MAX)));
        let rows: Vec<_> = s.by_ref().collect();
        (rows, s.stats())
    }

    #[test]
    fn two_finger_finds_all_matches() {
        for cascade in [false, true] {
            let (m, s) = drain(
                &[&[1, 3, 5, 7], &[2, 3, 7, 9]],
                IntersectPolicy::TwoFinger,
                cascade,
            );
            let coords: Vec<u64> = m.iter().map(|(c, _)| c.as_point().unwrap()).collect();
            assert_eq!(coords, vec![3, 7]);
            // 1<2, 3>2, 3=3, 5<7, 7=7.
            assert_eq!(
                s,
                CoIterStats {
                    comparisons: 5,
                    matches: 2
                }
            );
        }
    }

    #[test]
    fn all_policies_agree_on_matches() {
        let fibers: [&[u64]; 2] = [&[0, 2, 4, 6, 8, 10, 50, 51, 52], &[4, 5, 6, 52, 99]];
        let want = oracle_intersection(&fibers);
        for policy in POLICIES {
            for cascade in [false, true] {
                let (rows, stats) = drain(&fibers, policy, cascade);
                assert_eq!(rows, want, "{policy:?} cascade={cascade}");
                assert_eq!(stats.matches, want.len() as u64, "{policy:?}");
            }
        }
    }

    /// Leader-follower work is the occupancy of fiber 0, whichever
    /// operand the policy names as leader.
    #[test]
    fn leader_follower_work_tracks_leader_occupancy() {
        let big: Vec<u64> = (0..500).collect();
        let small: &[u64] = &[100, 200];
        for leader in [0, 1] {
            let policy = IntersectPolicy::LeaderFollower { leader };
            for cascade in [false, true] {
                let (_, s) = drain(&[small, &big], policy, cascade);
                assert_eq!(s.comparisons, 2, "leader={leader} cascade={cascade}");
                let (_, s) = drain(&[&big, small], policy, cascade);
                assert_eq!(s.comparisons, 500, "leader={leader} cascade={cascade}");
            }
        }
    }

    /// The engine's charge model: on the raw-run and the cascade path
    /// alike, every policy charges the textbook unit with fiber 0
    /// leading, so skip-ahead charges exactly what two-finger does and
    /// `LeaderFollower { leader: 1 }` what `leader: 0` does.
    #[test]
    fn engine_charges_the_textbook_units() {
        let dense: Vec<u64> = (0..1000).step_by(3).collect();
        let cases: [[&[u64]; 2]; 5] = [
            [&[1, 3, 5, 7], &[2, 3, 7, 9]],
            [&[999], &dense],
            [&dense, &[0, 500, 999]],
            [&[], &[1, 2]],
            [&[4, 8, 12], &[4, 8, 12]],
        ];
        for fibers in cases {
            for policy in POLICIES {
                let want = textbook(&fibers, policy);
                for cascade in [false, true] {
                    let (_, stats) = drain(&fibers, policy, cascade);
                    assert_eq!(stats, want, "{policy:?} cascade={cascade} {fibers:?}");
                }
            }
            let charge = |p| drain(&fibers, p, false).1;
            assert_eq!(
                charge(IntersectPolicy::SkipAhead),
                charge(IntersectPolicy::TwoFinger)
            );
            assert_eq!(
                charge(IntersectPolicy::LeaderFollower { leader: 1 }),
                charge(IntersectPolicy::LeaderFollower { leader: 0 })
            );
        }
    }

    #[test]
    fn intersect_many_matches_pairwise_composition() {
        let fibers: [&[u64]; 3] = [&[1, 2, 3, 4, 5], &[2, 4, 6], &[4, 5, 6]];
        let ts: Vec<CompressedTensor> = fibers.iter().map(|f| fiber(f)).collect();
        let views: Vec<FiberView<'_>> = ts.iter().map(view).collect();
        let rows: Vec<_> = intersect_stream(&views, IntersectPolicy::TwoFinger).collect();
        assert_eq!(rows, oracle_intersection(&fibers));
        assert_eq!(rows, vec![(Coord::Point(4), vec![3, 1, 0])]);
    }

    #[test]
    fn streams_are_lazy_but_stats_complete_on_drain() {
        let (ta, tb) = (fiber(&[1, 3, 5, 7]), fiber(&[3, 7]));
        let mut s = intersect_stream(&[view(&ta), view(&tb)], IntersectPolicy::TwoFinger);
        let first = s.next().unwrap();
        assert_eq!(first.0, Coord::Point(3));
        let partial = s.stats();
        assert_eq!(partial.matches, 1);
        let rest: Vec<_> = s.by_ref().collect();
        assert_eq!(rest.len(), 1);
        assert!(s.stats().comparisons > partial.comparisons);
    }

    /// The cascade charges what the eager pairwise composition would:
    /// each stage merges the complete output of the stage above it, even
    /// when its own fiber exhausts first.
    #[test]
    fn cascade_drains_upstream_when_a_stage_exhausts() {
        // (fibers, comparisons of `a ∩ b` then of `(a ∩ b) ∩ c`, matches)
        let cases: [([&[u64]; 3], u64, u64); 2] = [
            // b exhausts at once: 1 + 1 comparisons, no match.
            ([&[1, 2, 3, 4, 5], &[1], &[9]], 2, 0),
            // c exhausts after its match; stage 1 still merges all of
            // a and b: 5 + 1 comparisons.
            ([&[1, 2, 3, 4, 5], &[1, 2, 3, 4, 5], &[1]], 6, 1),
        ];
        for (fibers, comparisons, matches) in cases {
            let ts: Vec<CompressedTensor> = fibers.iter().map(|f| fiber(f)).collect();
            let views: Vec<FiberView<'_>> = ts.iter().map(view).collect();
            let mut s = intersect_stream(&views, IntersectPolicy::TwoFinger);
            let rows: Vec<_> = s.by_ref().collect();
            assert_eq!(rows, oracle_intersection(&fibers));
            assert_eq!(
                s.stats(),
                CoIterStats {
                    comparisons,
                    matches
                }
            );
        }
    }

    #[test]
    fn union_yields_every_coordinate_once() {
        let fibers: [&[u64]; 2] = [&[1, 3], &[2, 3, 5]];
        let ts: Vec<CompressedTensor> = fibers.iter().map(|f| fiber(f)).collect();
        let views: Vec<FiberView<'_>> = ts.iter().map(view).collect();
        let mut s = union_stream(&views);
        let rows: Vec<_> = s.by_ref().collect();
        assert_eq!(rows, oracle_union(&fibers));
        assert_eq!(rows[2].1, vec![Some(1), Some(1)]);
        assert_eq!(rows[0].1, vec![Some(0), None]);
        assert_eq!(s.stats().matches, 4);
    }

    /// The raw-run kernels and the cascade are two walks of one unit:
    /// they find the same matches and positions and charge alike under
    /// every policy, over one fiber and over two.
    #[test]
    fn streams_agree_across_representations() {
        let fibers: [&[u64]; 2] = [&[0, 2, 4, 6, 8, 10, 50, 51, 52], &[4, 5, 6, 52, 99]];
        for policy in POLICIES {
            for n in 1..=2 {
                let runs = drain(&fibers[..n], policy, false);
                let cascade = drain(&fibers[..n], policy, true);
                assert_eq!(runs, cascade, "{policy:?} n={n}");
                assert_eq!(runs.1, textbook(&fibers[..n], policy), "{policy:?} n={n}");
            }
        }
    }

    #[test]
    fn union_of_empty_fibers_is_empty() {
        let (a, b) = (fiber(&[]), fiber(&[]));
        assert!(union_stream(&[view(&a), view(&b)]).next().is_none());
    }

    /// Shard-exactness: for every split of the coordinate space into
    /// `[0,b)` and `[b,1000)`, the bounded streams' emissions concatenate
    /// to the unbounded stream's and their stats sum to its stats exactly.
    #[test]
    fn bounded_intersect_shards_partition_sequential_exactly() {
        let (ta, tb) = (
            fiber(&[0, 2, 4, 6, 8, 10, 50, 51, 52, 400, 401, 700]),
            fiber(&[4, 5, 6, 52, 99, 400, 700, 999]),
        );
        let pair = [view(&ta), view(&tb)];
        for policy in POLICIES {
            for nf in [1usize, 2] {
                let views = &pair[..nf];
                let mut whole = intersect_stream(views, policy);
                let seq: Vec<_> = whole.by_ref().collect();
                let seq_stats = whole.stats();
                for split in [0u64, 1, 5, 52, 53, 399, 500, 999, 1000] {
                    let mut merged = Vec::new();
                    let mut comparisons = 0;
                    let mut matches = 0;
                    for (lo, hi) in [(0, split), (split, 1000)] {
                        let mut s = intersect_stream_bounded(views, policy, lo, hi);
                        merged.extend(s.by_ref());
                        comparisons += s.stats().comparisons;
                        matches += s.stats().matches;
                    }
                    assert_eq!(seq, merged, "{policy:?} nf={nf} split={split}");
                    assert_eq!(
                        (seq_stats.comparisons, seq_stats.matches),
                        (comparisons, matches),
                        "{policy:?} nf={nf} split={split}"
                    );
                }
            }
        }
    }

    #[test]
    fn bounded_union_shards_partition_sequential_exactly() {
        let ts: Vec<CompressedTensor> = [
            &[1u64, 3, 40, 41, 800][..],
            &[2, 3, 5, 41, 999],
            &[0, 40, 900, 999],
        ]
        .iter()
        .map(|c| fiber(c))
        .collect();
        let views: Vec<FiberView<'_>> = ts.iter().map(view).collect();
        let mut whole = union_stream(&views);
        let seq: Vec<_> = whole.by_ref().collect();
        let seq_stats = whole.stats();
        for splits in [vec![500], vec![0, 41], vec![3, 40, 900], vec![1000]] {
            let mut bounds = vec![0u64];
            bounds.extend(&splits);
            bounds.push(1000);
            let mut merged = Vec::new();
            let mut comparisons = 0;
            let mut matches = 0;
            for w in bounds.windows(2) {
                let mut s = union_stream_bounded(&views, w[0], w[1]);
                merged.extend(s.by_ref());
                comparisons += s.stats().comparisons;
                matches += s.stats().matches;
            }
            assert_eq!(seq, merged, "splits={splits:?}");
            assert_eq!(
                (seq_stats.comparisons, seq_stats.matches),
                (comparisons, matches),
                "splits={splits:?}"
            );
        }
    }
}
