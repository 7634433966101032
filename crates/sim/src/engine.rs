//! The instrumented execution engine.
//!
//! Interprets an [`EinsumPlan`] over real tensors: applies the per-tensor
//! transform pipeline (publishing leader-follower partition boundaries),
//! then walks the mapped loop nest co-iterating fibers exactly as the
//! modelled hardware would — intersecting multiplicative operands,
//! unioning additive ones, projecting flattened coordinates, resolving
//! affine indices — while streaming every access into [`Instruments`].
//!
//! The engine takes CSF ([`CompressedTensor`]) inputs only — the
//! [`crate::Simulator`] compresses owned inputs once, at its API boundary
//! — and walks them through [`FiberView`] cursors: untransformed inputs
//! are borrowed, never cloned. Each loop level consumes a
//! lazy intersection/union stream instead of materializing a match list;
//! an intersection of one or two point levels scans or merges their raw
//! coordinate runs ([`teaal_fibertree::PointRun`]) by integer compares.
//!
//! The engine builds one storage representation, CSF: every input
//! transform chain runs on CSF arrays, and every output drains through a
//! [`CompressedBuilder`].
//!
//! Every name the walk uses — tensor channels, working ranks, loop
//! variables, and the loop ranks that end buffet and output epochs — is
//! resolved to a dense index once per [`Engine::execute_data`], in time
//! proportional to the plan, never to the input. The walk then counts into
//! walk-local dense arrays and reuses one set of stream and node buffers
//! per loop level, so no step allocates, and no step probes a map. A touch
//! names its element by `(level, CSF position)`
//! ([`FiberView::csf_position`]), and each channel keeps its per-element
//! state (buffet epoch stamps, cache line ids) in per-level arrays indexed
//! by position. The current space id is resolved to a dense slot of the
//! instruments' [`ComputeCounter`] at most once per visit of the
//! innermost space level (by the first leaf that charges compute), and
//! multiplies and additions add into that slot's pair. The remaining
//! walk-local arrays (reads, visits, comparisons) fold into the public
//! [`Instruments`] once at the end of the walk (and once per shard,
//! before the shard merge).
//!
//! Per-key output state lives with the key. A non-concordant walk
//! accumulates into an `OutTable`: coordinates in one flat arena, the
//! value and the last partial-output epoch in parallel arrays, found
//! through an open-addressing index. A new output point appends to those
//! arrays and allocates nothing of its own (the arrays grow
//! geometrically); the drain sorts slot ids once and pushes borrowed key
//! slices straight into the [`CompressedBuilder`]. A concordant walk
//! streams, carrying the one pending key's value and epoch.
//!
//! With [`Engine::with_threads`] above one, an eligible plan splits its
//! top loop rank into coordinate ranges (shards) that run on the shared
//! worker pool ([`crate::par`]). Each shard forks its own [`Instruments`]
//! from the caller's, and the shards merge in coordinate order, so the
//! result is bit-identical to the sequential walk. A panicking shard
//! rolls the instruments back, and the plan reruns sequentially.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use teaal_core::canon::Fnv1a;
use teaal_core::einsum::Rhs;
use teaal_core::ir::{Descent, EinsumPlan, PlanStep, RankDef, TensorPlan};
use teaal_fibertree::iterate::{IntersectStream, UnionStream};
use teaal_fibertree::partition::SplitKind;
use teaal_fibertree::{
    telemetry, BoundaryRecord, CompressedBuilder, CompressedTensor, Coord, CoordKey, FiberView,
    IntersectPolicy, MergeRecord, PayloadView, Shape, TransformCache, TransformedView,
};

use crate::counters::{ComputeCounter, Instruments, OutputChannel, RankSlot, TensorChannel};
use crate::error::SimError;
use crate::limits::CancelToken;
use crate::ops::OpTable;
use crate::par;
use crate::table::OutTable;

/// Boundary lists published by occupancy-partition leaders, keyed by
/// `(rank, leader tensor)`.
pub type BoundaryCache =
    BTreeMap<(String, String), std::collections::BTreeMap<Vec<Coord>, Vec<Coord>>>;

/// The engine executing one Einsum plan.
pub struct Engine<'p> {
    plan: &'p EinsumPlan,
    ops: OpTable,
    policy: IntersectPolicy,
    rank_extents: BTreeMap<String, u64>,
    threads: usize,
    /// Shared transformed-input cache (staged pipeline), when attached.
    transforms: Option<Arc<TransformCache>>,
    /// Cooperative budget/cancellation handle, when attached. `None`
    /// keeps the hot loop free of charging entirely.
    cancel: Option<CancelToken>,
}

/// One prepared input: either the untransformed tensor borrowed straight
/// from the environment, a freshly transformed tensor this execution
/// owns, or a shared transformed view out of the pipeline's
/// [`TransformCache`].
enum PreparedInput<'t> {
    Borrowed(&'t CompressedTensor),
    Transformed(CompressedTensor),
    Shared(Arc<TransformedView>),
}

impl PreparedInput<'_> {
    fn data(&self) -> &CompressedTensor {
        match self {
            PreparedInput::Borrowed(t) => t,
            PreparedInput::Transformed(t) => t,
            PreparedInput::Shared(v) => &v.tensor,
        }
    }
}

#[derive(Clone)]
struct Exec<'e, 'p> {
    engine: &'e Engine<'p>,
    union_mode: bool,
    take_which: Option<usize>,
    /// The plan's names, resolved for this execution.
    names: &'e WalkPlan,
    /// When executing one shard of a partitioned top rank, the top-level
    /// stream only emits coordinates in `[lo, hi)` (absolute positions,
    /// shard-exact charging).
    top_bounds: Option<(u64, u64)>,
    /// Whether leaf() must remember the space id of each output key's
    /// first write — needed to reconstitute the sequential reduction
    /// counts when shards overlap on output keys.
    record_first_space: bool,
}

/// The engine's output accumulator. `Table` keeps every point in a
/// walk-local [`OutTable`] (the general path): the key's coordinates,
/// value and last output epoch live together in flat arrays, so a new
/// point costs no allocation, and the table drains in key order with one
/// sort. `Stream` drains straight into a [`CompressedBuilder`] when the
/// loop order is concordant with the output rank order, so leaf visits
/// arrive key-sorted with equal keys adjacent and only one pending entry
/// (key, value, last epoch) ever needs buffering.
enum OutAcc {
    Table(OutTable),
    Stream {
        builder: CompressedBuilder,
        pending: Option<(Vec<u64>, f64, u64)>,
    },
}

/// Space id at each output key's first write (shard-overlap merges
/// only; see [`Exec::record_first_space`]).
type FirstSpace = BTreeMap<Vec<u64>, Vec<u64>>;

struct State<'t> {
    nodes: Vec<Option<PayloadView<'t>>>,
    /// Bound loop variables as `(root id, value)`, innermost last.
    binds: Vec<(usize, u64)>,
    space: Vec<u64>,
    /// `space`'s slot in [`Instruments::compute`], once a leaf charged
    /// compute at it; cleared whenever a space level moves.
    space_slot: Option<usize>,
    /// The output key of the current leaf, rebuilt in place.
    key: Vec<u64>,
    out: OutAcc,
    first_space: FirstSpace,
}

/// How a shard-parallel execution was planned: the top-rank coordinate
/// ranges, per-channel fill-merge modes, and the output merge strategy.
struct ShardPlan {
    /// Half-open top-coordinate ranges, one per worker, in coordinate
    /// order; together they cover every top coordinate.
    ranges: Vec<(u64, u64)>,
    /// Per-tensor: whether the shard channel logs fills for merge-time
    /// first-wins deduplication (single buffet epoch spanning shards).
    log_fills: BTreeMap<String, bool>,
    /// Whether shards write disjoint output key sets (the top coordinate
    /// is an output coordinate), making all output counters additive.
    disjoint: bool,
    /// Whether shards stream their outputs into per-shard
    /// [`CompressedBuilder`]s merged by k-way concatenation.
    stream_out: bool,
}

/// Every name the nest walk uses, resolved to a dense index once per
/// execution: tensor channels by their position in
/// [`Instruments::tensors`], working ranks by read slot, and loop
/// variables by root id. Building it is proportional to the plan, never
/// to the input.
struct WalkPlan {
    /// Access index → tensor index in the prepared inputs.
    access_tensor: Vec<usize>,
    /// Channel index → the prepared input its touches read, if any.
    chan_tensor: Vec<Option<usize>>,
    levels: Vec<LevelPlan>,
    /// `touches[ai][li]`: what a touch by access `ai` at level `li`
    /// charges (`None` when the tensor has no channel).
    touches: Vec<Vec<Option<Touch>>>,
    /// Each read slot's `(channel, working rank)`, for the fold into
    /// [`TensorChannel::reads_by_rank`].
    reads: Vec<(usize, String)>,
    /// The output's target ranks as root ids, in target order.
    out_roots: Vec<usize>,
}

/// The plan-static part of one loop level.
struct LevelPlan {
    /// The loop rank's name (the `loop_visits` and `intersect_by_rank`
    /// key).
    name: String,
    /// Accesses co-iterating here.
    drivers: Vec<usize>,
    /// `(root id, coordinate component)` variables bound here.
    binds: Vec<(usize, usize)>,
    /// Non-driver descents, in access order.
    lookups: Vec<(usize, Lookup)>,
    /// Channels whose buffet epoch ends when this level advances.
    evict: Vec<usize>,
    /// Whether the output's partial-reduction epoch ends here.
    evict_output: bool,
    /// Dense levels (no drivers) iterate this root's extent...
    dense_root: String,
    /// ...when it is known; a dense level with no extent errors on entry.
    dense_extent: Option<u64>,
    is_space: bool,
}

/// A non-driver descent.
enum Lookup {
    /// Probe with one component of the loop coordinate.
    Project { component: usize },
    /// Probe with an affine index over bound variables (root ids).
    Affine { vars: Vec<usize>, offset: i64 },
}

/// A resolved touch target: the channel, its read slot, and the rank's
/// touch behaviour.
#[derive(Clone, Copy)]
struct Touch {
    chan: usize,
    read: usize,
    slot: RankSlot,
}

impl WalkPlan {
    /// Resolves `engine`'s plan against the channels of `instruments`.
    ///
    /// # Errors
    ///
    /// [`SimError::MissingTensor`] for an access with no prepared tensor,
    /// [`SimError::PhantomRank`] for a plan that descends deeper than a
    /// tensor's working order.
    fn resolve(engine: &Engine<'_>, instruments: &Instruments) -> Result<WalkPlan, SimError> {
        let plan = engine.plan;
        let chans: Vec<(&String, &TensorChannel)> = instruments.tensors.iter().collect();
        let mut roots: BTreeMap<String, usize> = BTreeMap::new();
        let mut root_id = |name: &str| -> usize {
            let next = roots.len();
            *roots.entry(name.to_string()).or_insert(next)
        };
        let mut reads: Vec<(usize, String)> = Vec::new();

        let accesses = plan.equation.rhs.accesses();
        let mut access_tensor = Vec::with_capacity(accesses.len());
        let mut touches = Vec::with_capacity(accesses.len());
        for (ai, a) in accesses.iter().enumerate() {
            let ti = plan
                .tensor_plans
                .iter()
                .position(|tp| tp.tensor == a.tensor)
                .ok_or_else(|| SimError::MissingTensor {
                    tensor: a.tensor.clone(),
                })?;
            access_tensor.push(ti);
            let tp = &plan.tensor_plans[ti];
            let chan = chans.iter().position(|(name, _)| **name == tp.tensor);
            // The working rank consumed by the access's k-th descent is the
            // k-th rank of the tensor's working order; a level consuming
            // several joins their names ("K/M"). Descending past the
            // working order means the plan is malformed: fail loudly
            // instead of instrumenting phantom ranks.
            let wo = &tp.working_order;
            let mut per_level = Vec::with_capacity(plan.access_roles[ai].roles.len());
            let mut k = 0usize;
            for level in &plan.access_roles[ai].roles {
                let mut names = Vec::with_capacity(level.len());
                for _ in level {
                    let name = wo.get(k).ok_or_else(|| SimError::PhantomRank {
                        tensor: tp.tensor.clone(),
                        depth: k,
                        working_order: wo.clone(),
                    })?;
                    names.push(name.as_str());
                    k += 1;
                }
                let touch = match chan {
                    Some(ci) if !level.is_empty() => {
                        let rank = names.join("/");
                        let slot = chans[ci].1.cfg().slot(&rank);
                        let read = match reads.iter().position(|(c, r)| *c == ci && *r == rank) {
                            Some(read) => read,
                            None => {
                                reads.push((ci, rank));
                                reads.len() - 1
                            }
                        };
                        Some(Touch {
                            chan: ci,
                            read,
                            slot,
                        })
                    }
                    _ => None,
                };
                per_level.push(touch);
            }
            touches.push(per_level);
        }

        let mut levels = Vec::with_capacity(plan.loop_ranks.len());
        for (li, lr) in plan.loop_ranks.iter().enumerate() {
            let mut drivers = Vec::new();
            let mut lookups = Vec::new();
            for (ai, roles) in plan.access_roles.iter().enumerate() {
                for d in &roles.roles[li] {
                    match d {
                        Descent::CoIterate => {}
                        Descent::Project { component } => lookups.push((
                            ai,
                            Lookup::Project {
                                component: *component,
                            },
                        )),
                        Descent::Affine { index_pos } => {
                            let ix = &accesses[ai].indices[*index_pos];
                            let vars = ix.vars.iter().map(|v| root_id(&v.to_uppercase()));
                            lookups.push((
                                ai,
                                Lookup::Affine {
                                    vars: vars.collect(),
                                    offset: ix.offset,
                                },
                            ));
                        }
                    }
                }
                if roles.roles[li].contains(&Descent::CoIterate) {
                    drivers.push(ai);
                }
            }
            let dense_root = lr
                .binds
                .first()
                .map_or_else(|| lr.name.clone(), |(r, _)| r.clone());
            levels.push(LevelPlan {
                drivers,
                binds: lr.binds.iter().map(|(r, c)| (root_id(r), *c)).collect(),
                lookups,
                evict: chans
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, ch))| ch.cfg().evict_on.as_deref() == Some(lr.name.as_str()))
                    .map(|(ci, _)| ci)
                    .collect(),
                evict_output: instruments.output.evict_on.as_deref() == Some(lr.name.as_str()),
                dense_extent: engine.rank_extents.get(&dense_root).copied(),
                dense_root,
                is_space: lr.is_space,
                name: lr.name.clone(),
            });
        }
        let out_roots = plan
            .output
            .target_order
            .iter()
            .map(|r| root_id(r))
            .collect();
        let chan_tensor = chans
            .iter()
            .map(|(name, _)| plan.tensor_plans.iter().position(|tp| tp.tensor == **name))
            .collect();
        Ok(WalkPlan {
            access_tensor,
            chan_tensor,
            levels,
            touches,
            reads,
            out_roots,
        })
    }
}

/// The walk's view of one execution's [`Instruments`]: channels by dense
/// index, the compute counter the leaves charge, plus the dense counters
/// [`Walk::fold`] writes back.
struct Walk<'i> {
    chans: Vec<&'i mut TensorChannel>,
    output: &'i mut OutputChannel,
    compute: &'i mut ComputeCounter,
    loop_visits: &'i mut BTreeMap<String, u64>,
    intersect_by_rank: &'i mut BTreeMap<String, u64>,
    /// Touches per read slot.
    reads: Vec<u64>,
    /// Visits per level. `None` until one of the level's loops finishes,
    /// which is when its `loop_visits` entry comes into being — a level
    /// visited zero times still has one.
    visits: Vec<Option<u64>>,
    /// Intersection-unit comparisons per level, `None` until charged.
    comparisons: Vec<Option<u64>>,
}

impl<'i> Walk<'i> {
    fn new(inst: &'i mut Instruments, names: &WalkPlan) -> Self {
        let Instruments {
            tensors,
            output,
            intersect_by_rank,
            loop_visits,
            compute,
            ..
        } = inst;
        Walk {
            chans: tensors.values_mut().collect(),
            output,
            compute,
            loop_visits,
            intersect_by_rank,
            reads: vec![0; names.reads.len()],
            visits: vec![None; names.levels.len()],
            comparisons: vec![None; names.levels.len()],
        }
    }

    /// Folds the dense counters into the public instruments.
    fn fold(mut self, names: &WalkPlan) {
        for (&n, (ci, rank)) in self.reads.iter().zip(&names.reads) {
            if n > 0 {
                *self.chans[*ci]
                    .reads_by_rank
                    .entry(rank.clone())
                    .or_insert(0) += n;
            }
        }
        for ((v, c), lp) in self.visits.iter().zip(&self.comparisons).zip(&names.levels) {
            if let Some(v) = v {
                *self.loop_visits.entry(lp.name.clone()).or_insert(0) += v;
            }
            if let Some(c) = c {
                *self.intersect_by_rank.entry(lp.name.clone()).or_insert(0) += c;
            }
        }
    }
}

/// Per-level buffers, reused by every entry into the level.
#[derive(Default)]
struct LevelScratch<'v> {
    intersect: IntersectStream<'v>,
    union: UnionStream<'v>,
    /// Live driver fibers, in driver order.
    live: Vec<FiberView<'v>>,
    /// Driver index → its index in `live` (`None` for a dead driver).
    live_of: Vec<Option<usize>>,
    /// The nodes at level entry, restored after every visit.
    saved: Vec<Option<PayloadView<'v>>>,
}

/// The per-level coordinate source: a dense counter for affine kernels,
/// the level's union or intersection stream otherwise.
#[derive(Clone, Copy)]
enum Mode {
    Dense { next: u64, end: u64 },
    Union,
    Intersect,
    Empty,
}

impl<'p> Engine<'p> {
    /// Creates an engine for one plan.
    pub fn new(
        plan: &'p EinsumPlan,
        ops: OpTable,
        policy: IntersectPolicy,
        rank_extents: BTreeMap<String, u64>,
    ) -> Self {
        Engine {
            plan,
            ops,
            policy,
            rank_extents,
            threads: 1,
            transforms: None,
            cancel: None,
        }
    }

    /// Attaches a cooperative cancellation/budget token. The walk
    /// charges one engine step per loop-rank visit and one output
    /// entry per materialized key, and polls the token at stream,
    /// shard, and transform boundaries; a tripped budget surfaces as
    /// the matching structured [`SimError`] with partial telemetry.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a shared [`TransformCache`]: input transform chains whose
    /// results are content-determined are served from (and published to)
    /// the cache instead of re-running. Recorded side effects — merge
    /// groups and leader boundary publications — are replayed from the
    /// cached view, so instruments and boundary visibility are
    /// bit-identical to an uncached run.
    pub fn with_transform_cache(mut self, cache: Arc<TransformCache>) -> Self {
        self.transforms = Some(cache);
        self
    }

    /// Sets the worker count for shard-parallel execution (default 1).
    ///
    /// With `n > 1`, eligible plans partition their top loop rank into up
    /// to `n` coordinate ranges executed on the worker pool
    /// ([`crate::par`]) and merged deterministically — instruments and
    /// outputs are bit-identical to the sequential run (pinned by the
    /// `parallel_sharding` suite).
    /// Plans the shard-exactness analysis cannot prove simply run
    /// sequentially; `n` is a cap, never a requirement.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Executes the plan, assembling the output in CSF storage.
    ///
    /// `inputs` must contain every input tensor (cascade inputs and
    /// already-produced intermediates);
    /// `instruments` receives the access stream; `boundaries` carries
    /// leader partition boundaries across tensors. The accumulated output
    /// drains through a [`CompressedBuilder`]: `O(output nnz)`
    /// allocations, no tree build.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when inputs are missing, a transform fails, a
    /// dense loop rank has no known extent, or the plan descends deeper
    /// than a tensor's working order ([`SimError::PhantomRank`]).
    pub fn execute_data<'t>(
        &self,
        inputs: &BTreeMap<String, &'t CompressedTensor>,
        instruments: &mut Instruments,
        boundaries: &mut BoundaryCache,
    ) -> Result<CompressedTensor, SimError> {
        // 1. Transform inputs per plan (leaders first — plan order).
        // Untransformed inputs are borrowed rather than cloned
        // — the graph driver re-executes cascades every superstep against
        // the same multi-million-entry compressed adjacency. Transform
        // chains run on CSF arrays. With a [`TransformCache`] attached,
        // content-determined chains are served from the cache and their
        // recorded side effects replayed.
        let mut tensors: Vec<PreparedInput<'t>> = Vec::new();
        for tp in &self.plan.tensor_plans {
            // Transform-step boundary: a budget that trips between input
            // chains returns before the next (possibly large) transform.
            if let Some(token) = &self.cancel {
                token.checkpoint()?;
            }
            let input: &CompressedTensor =
                inputs
                    .get(&tp.tensor)
                    .copied()
                    .ok_or_else(|| SimError::MissingTensor {
                        tensor: tp.tensor.clone(),
                    })?;
            let needs_swizzle = input.rank_ids() != tp.initial_order.as_slice();
            let t = if needs_swizzle || !tp.steps.is_empty() {
                let cached = self.transforms.as_ref().and_then(|cache| {
                    let key = self.transform_key(input, tp, needs_swizzle, boundaries)?;
                    Some(
                        cache.get_or_try_insert_with(key, || -> Result<_, SimError> {
                            let view =
                                self.run_transform_chain(input, tp, needs_swizzle, boundaries)?;
                            let bytes = view.approx_bytes();
                            Ok((view, bytes))
                        }),
                    )
                });
                match cached {
                    Some(view) => {
                        let view = view?;
                        apply_view_effects(&view, instruments, boundaries);
                        PreparedInput::Shared(view)
                    }
                    None => {
                        let view =
                            self.run_transform_chain(input, tp, needs_swizzle, boundaries)?;
                        apply_view_effects(&view, instruments, boundaries);
                        PreparedInput::Transformed(view.tensor)
                    }
                }
            } else {
                PreparedInput::Borrowed(input)
            };
            tensors.push(t);
        }

        // 2. Resolve every name the walk uses, once.
        let names = WalkPlan::resolve(self, instruments)?;
        let (union_mode, take_which) = match &self.plan.equation.rhs {
            Rhs::SumOfProducts(terms) => (terms.len() > 1, None),
            Rhs::Take { which, .. } => (false, Some(*which)),
        };

        let exec = Exec {
            engine: self,
            union_mode,
            take_which,
            names: &names,
            top_bounds: None,
            record_first_space: false,
        };

        // 3. Walk the nest — shard-parallel when the exactness analysis
        // allows it, sequentially otherwise. A panicking shard worker is
        // isolated by the worker pool, the partially-absorbed instruments
        // are rolled back to this pre-shard snapshot, and the plan is
        // retried once sequentially — degradation, not failure.
        let concordant = self.output_concordant();
        if let Some(token) = &self.cancel {
            token.checkpoint()?;
        }
        if let Some(shard_plan) = self.plan_shards(&exec, &tensors, instruments) {
            let snapshot = instruments.clone();
            match self.execute_sharded(&exec, &tensors, instruments, &shard_plan) {
                Err(SimError::WorkerPanic { .. }) => {
                    *instruments = snapshot;
                    telemetry::note_degraded_sequential();
                }
                other => return other,
            }
        }
        let out = self.output_acc(concordant)?;
        let (out, _) = exec.run(&tensors, instruments, out)?;

        // 4. Assemble the output tensor.
        match out {
            OutAcc::Stream { builder, pending } => self.finish_stream(builder, pending),
            OutAcc::Table(table) => self.build_output(table, instruments),
        }
    }

    /// A fresh output accumulator: streaming when `stream`, a table
    /// otherwise.
    fn output_acc(&self, stream: bool) -> Result<OutAcc, SimError> {
        let target = &self.plan.output.target_order;
        Ok(if stream {
            OutAcc::Stream {
                builder: self.output_builder(target)?,
                pending: None,
            }
        } else {
            OutAcc::Table(OutTable::new(target.len()))
        })
    }

    /// Whether the loop order is concordant with the output rank order:
    /// the first `target_order.len()` loop ranks each bind exactly their
    /// corresponding target root (component 0, a root rank's point
    /// coordinates) and no deeper loop rank rebinds any target root. Leaf
    /// visits then produce nondecreasing output keys with equal keys
    /// adjacent, so the accumulator can stream into a
    /// [`CompressedBuilder`] instead of buffering every point.
    fn output_concordant(&self) -> bool {
        let out = &self.plan.output;
        if out.online_swizzle {
            return false;
        }
        let t = out.target_order.len();
        if self.plan.loop_ranks.len() < t {
            return false;
        }
        for (i, r) in out.target_order.iter().enumerate() {
            let lr = &self.plan.loop_ranks[i];
            if lr.binds.len() != 1 || lr.binds[0].0 != *r || lr.binds[0].1 != 0 {
                return false;
            }
            if !matches!(self.plan.rank_space.def(&lr.name), Some(RankDef::Root)) {
                return false;
            }
        }
        self.plan.loop_ranks[t..].iter().all(|lr| {
            lr.binds
                .iter()
                .all(|(root, _)| !out.target_order.contains(root))
        })
    }

    /// An output builder over `ranks` (the target order, or the
    /// production order of an online swizzle). Streamed, sharded and
    /// table outputs all build through it, so they are bit-identical.
    fn output_builder(&self, ranks: &[String]) -> Result<CompressedBuilder, SimError> {
        let shapes: Vec<Shape> = ranks
            .iter()
            .map(|r| Shape::Interval(self.rank_extents.get(r).copied().unwrap_or(u64::MAX / 2)))
            .collect();
        Ok(CompressedBuilder::new(
            &self.plan.output.tensor,
            ranks.to_vec(),
            shapes,
        )?)
    }

    /// Flushes a streaming accumulator's pending entry (dropping semiring
    /// zeros, like the table drain) and closes the builder.
    fn finish_stream(
        &self,
        builder: CompressedBuilder,
        pending: Option<(Vec<u64>, f64, u64)>,
    ) -> Result<CompressedTensor, SimError> {
        let zero = self.ops.semiring.zero();
        let last = pending.as_ref().map(|(k, v, _)| (k.as_slice(), *v));
        drain(builder, zero, last)
    }

    /// Decides whether this execution can shard its top loop rank across
    /// `self.threads` workers while staying bit-identical to the
    /// sequential run, and plans the shard ranges if so. Every `None`
    /// is a proof obligation the analysis could not discharge — the
    /// caller then runs sequentially, which is always correct.
    fn plan_shards(
        &self,
        exec: &Exec<'_, 'p>,
        tensors: &[PreparedInput<'_>],
        instruments: &Instruments,
    ) -> Option<ShardPlan> {
        if self.threads < 2 {
            return None;
        }
        let top = self.plan.loop_ranks.first()?;

        // Top-level drivers and live fibers, exactly as level(0) sees
        // them.
        let driver_idx: Vec<usize> = self
            .plan
            .access_roles
            .iter()
            .enumerate()
            .filter(|(_, roles)| roles.roles[0].contains(&Descent::CoIterate))
            .map(|(ai, _)| ai)
            .collect();
        let live: Vec<FiberView<'_>> = driver_idx
            .iter()
            .filter_map(
                |&ai| match tensors[exec.names.access_tensor[ai]].data().root_view() {
                    PayloadView::Fiber(f) => Some(f),
                    _ => None,
                },
            )
            .collect();

        // Shard boundaries on the top coordinate axis, plus the exclusive
        // upper limit of the final range.
        let (boundaries, upper) = if driver_idx.is_empty() {
            // Dense top: split the extent evenly. A missing extent errors
            // identically on the sequential path, so fall back to it.
            let root = top
                .binds
                .first()
                .map(|(r, _)| r.clone())
                .unwrap_or_else(|| top.name.clone());
            let extent = self.rank_extents.get(&root).copied()?;
            if extent == 0 {
                return None;
            }
            let n = self.threads as u64;
            ((1..n).map(|i| i * extent / n).collect::<Vec<u64>>(), extent)
        } else {
            // Sparse top: bounded co-iteration is only shard-exact for
            // the stream shapes it was proved for.
            if exec.union_mode {
                if live.is_empty() {
                    return None;
                }
            } else if live.len() != driver_idx.len() || live.len() > 2 {
                return None;
            }
            // Bounded streams compare point coordinates; tuple-coordinate
            // roots (flattened ranks) fall back.
            if live
                .iter()
                .any(|f| f.occupancy() > 0 && f.coord_at(0).as_point().is_none())
            {
                return None;
            }
            let widest = live.iter().max_by_key(|f| f.occupancy())?;
            let occ = widest.occupancy();
            if occ == 0 {
                return None;
            }
            let bs: Vec<u64> = (1..self.threads)
                .map(|i| widest.coord_at(i * occ / self.threads).as_point())
                .collect::<Option<Vec<u64>>>()?;
            (bs, u64::MAX)
        };
        let mut ranges: Vec<(u64, u64)> = Vec::with_capacity(boundaries.len() + 1);
        let mut lo = 0u64;
        for b in boundaries {
            if b > lo && b < upper {
                ranges.push((lo, b));
                lo = b;
            }
        }
        ranges.push((lo, upper));
        if ranges.len() < 2 {
            return None;
        }

        // Channel mergeability: caches replay an access order, which
        // sharding reorders; buffet epochs must either stay within one
        // shard (evict-on the top rank) or span the whole run (no
        // effective evict rank, merged by first-fill-wins deduplication).
        let loop_names: BTreeSet<&str> = self
            .plan
            .loop_ranks
            .iter()
            .map(|l| l.name.as_str())
            .collect();
        let mut log_fills = BTreeMap::new();
        for (name, ch) in &instruments.tensors {
            let cfg = ch.cfg();
            if cfg.cache_lines.is_some() {
                return None;
            }
            let log = if !cfg.dram_backed {
                false
            } else {
                match cfg.evict_on.as_deref() {
                    Some(r) if r == top.name => false,
                    Some(r) if loop_names.contains(r) => return None,
                    _ => true,
                }
            };
            log_fills.insert(name.clone(), log);
        }

        // Output merge strategy. Disjoint: the top coordinate is an
        // output coordinate, so shards write disjoint keys and every
        // output counter is additive. Overlap: shards reduce into the
        // same keys, which is only reconstitutable without partial-output
        // epochs and with an exact (order-insensitive) reduction — or a
        // take, where the first shard's value wins as it would
        // sequentially.
        let out = &self.plan.output;
        let disjoint = top.binds.len() == 1
            && top.binds[0].1 == 0
            && out.target_order.contains(&top.binds[0].0)
            && !self.plan.loop_ranks[1..]
                .iter()
                .any(|lr| lr.binds.iter().any(|(r, _)| *r == top.binds[0].0));
        if !disjoint {
            let overlap_ok = instruments.output.evict_on.is_none()
                && (exec.take_which.is_some() || self.ops.exact_add);
            if !overlap_ok {
                return None;
            }
        }
        let stream_out = disjoint && self.output_concordant();

        Some(ShardPlan {
            ranges,
            log_fills,
            disjoint,
            stream_out,
        })
    }

    /// Runs the planned shards on the worker pool ([`crate::par`]) and
    /// merges their instruments and outputs deterministically, in shard
    /// (coordinate) order.
    fn execute_sharded(
        &self,
        exec: &Exec<'_, 'p>,
        tensors: &[PreparedInput<'_>],
        instruments: &mut Instruments,
        shard_plan: &ShardPlan,
    ) -> Result<CompressedTensor, SimError> {
        let stream_out = shard_plan.stream_out;
        let is_take = exec.take_which.is_some();
        let record_first_space = !shard_plan.disjoint && !is_take;
        let parent: &Instruments = instruments;
        // A panicking shard comes back as its own error; the caller
        // retries the plan sequentially.
        let worker_out = par::map(&shard_plan.ranges, self.threads, |&(lo, hi)| {
            teaal_core::failpoint::hit("engine.shard").map_err(SimError::Fibertree)?;
            let mut si = parent
                .fork_shard(|name, _| shard_plan.log_fills.get(name).copied().unwrap_or(false));
            let shard_exec = Exec {
                top_bounds: Some((lo, hi)),
                record_first_space,
                ..exec.clone()
            };
            let out = self.output_acc(stream_out)?;
            let (out, first_space) = shard_exec.run(tensors, &mut si, out)?;
            Ok((out, first_space, si))
        });

        // Merge, strictly in shard order.
        let top = &self.plan.loop_ranks[0];
        let top_is_space = top.is_space;
        let base_writes = instruments.output.writes;
        let base_updates = instruments.output.updates;
        let mut merged_out = OutTable::new(self.plan.output.target_order.len());
        let mut merged_builder = if stream_out {
            Some(self.output_builder(&self.plan.output.target_order)?)
        } else {
            None
        };
        let mut seen_keys: BTreeSet<Vec<u64>> = BTreeSet::new();
        let mut top_offset = 0u64;
        for res in worker_out {
            let (out, first_space, si) = res.unwrap_or_else(|message| {
                Err(SimError::WorkerPanic {
                    site: "shard".into(),
                    message,
                })
            })?;
            // Space ids carry the top rank's position index, which
            // restarts at zero in every shard: shift by the positions
            // consumed so far.
            let space_offset = if top_is_space { top_offset } else { 0 };
            let shard_visits = si.loop_visits.get(&top.name).copied().unwrap_or(0);
            instruments.absorb_shard(si, space_offset);
            match out {
                OutAcc::Stream { builder, pending } => {
                    let t = self.finish_stream(builder, pending)?;
                    merged_builder
                        .as_mut()
                        .expect("stream shards merge into a builder")
                        .append_tensor(&t)?;
                }
                OutAcc::Table(table) => {
                    // Take keeps the first (sequentially earliest) shard's
                    // value; reductions fold shard partials with the
                    // exact ⊕.
                    for (k, v) in table.iter() {
                        merged_out.fold(k, v, |acc, v| {
                            if is_take {
                                acc
                            } else {
                                self.ops.semiring.add(acc, v)
                            }
                        });
                    }
                }
            }
            // Overlap fixup: a key first written in an earlier shard
            // makes this shard's local first write a reduction update
            // sequentially — one extra add at the space where it
            // happened.
            for (k, mut space) in first_space {
                if seen_keys.contains(&k) {
                    if let Some(c0) = space.first_mut() {
                        *c0 += space_offset;
                    }
                    let slot = instruments.compute.slot(&space);
                    instruments.compute.charge(slot, 0, 1);
                } else {
                    seen_keys.insert(k);
                }
            }
            top_offset += shard_visits;
        }
        if !shard_plan.disjoint {
            // Reconstitute first-write/update splits from the merged key
            // set: sequentially, only one record per key is a write.
            let total_w = instruments.output.writes - base_writes;
            let total_u = instruments.output.updates - base_updates;
            let writes = merged_out.len() as u64;
            instruments.output.writes = base_writes + writes;
            instruments.output.updates = base_updates + (total_w + total_u - writes);
        }

        if let Some(builder) = merged_builder {
            return Ok(builder.finish());
        }
        // Table shards assemble through the shared drain, exactly like a
        // sequential run over the merged table.
        self.build_output(merged_out, instruments)
    }

    /// The content-address of one input's transform chain, or `None` when
    /// the result is not content-determined (a follower step whose leader
    /// boundaries are neither published by this chain nor already in
    /// `outer` — the uncached run then reports the identical
    /// [`SimError::MissingBoundaries`]).
    ///
    /// The key covers everything [`Engine::run_transform_chain`] reads:
    /// the input's content hash, the plan's initial order and steps, the
    /// online-swizzle flag (it decides merge recording), and — for
    /// followers resolved from `outer` — the exact boundary lists.
    fn transform_key(
        &self,
        input: &CompressedTensor,
        tp: &TensorPlan,
        needs_swizzle: bool,
        outer: &BoundaryCache,
    ) -> Option<u64> {
        let mut h = Fnv1a::new();
        h.write_str("transform-chain-v1");
        h.write_u64(input.content_hash());
        h.write_str(&tp.tensor);
        h.write_u64(tp.initial_order.len() as u64);
        for r in &tp.initial_order {
            h.write_str(r);
        }
        h.write_u64(u64::from(needs_swizzle));
        h.write_u64(u64::from(tp.online_swizzle));
        // Ranks this chain's own leader steps publish; follower steps
        // reading them are content-determined.
        let mut local_leaders: BTreeSet<(&str, &str)> = BTreeSet::new();
        for step in &tp.steps {
            h.write_str(&format!("{step:?}"));
            match step {
                PlanStep::SplitOccLeader { rank, .. } => {
                    local_leaders.insert((rank.as_str(), tp.tensor.as_str()));
                }
                PlanStep::SplitOccFollower { rank, leader, .. }
                    if !local_leaders.contains(&(rank.as_str(), leader.as_str())) =>
                {
                    let bounds = outer.get(&(rank.clone(), leader.clone()))?;
                    h.write_str(&format!("{bounds:?}"));
                }
                _ => {}
            }
        }
        Some(h.finish())
    }

    /// Runs one input's whole transform chain, recording its side effects
    /// — merge groups and leader boundary publications — as data in the
    /// returned [`TransformedView`] so a cache hit can replay them
    /// ([`apply_view_effects`]) instead of re-running the chain. Counts
    /// one real execution in [`telemetry::transform_exec_count`].
    fn run_transform_chain(
        &self,
        input: &CompressedTensor,
        tp: &TensorPlan,
        needs_swizzle: bool,
        outer: &BoundaryCache,
    ) -> Result<TransformedView, SimError> {
        teaal_core::failpoint::hit("transform.swizzle").map_err(SimError::Fibertree)?;
        telemetry::note_transform_exec();
        let mut merges: Vec<MergeRecord> = Vec::new();
        let mut published: Vec<BoundaryRecord> = Vec::new();
        // Followers see outer leaders plus any this chain publishes.
        let mut local: BoundaryCache = outer.clone();
        let tensor = self.transform_compressed(
            input,
            tp,
            needs_swizzle,
            &mut merges,
            &mut local,
            &mut published,
        )?;
        Ok(TransformedView {
            tensor,
            merges,
            boundaries: published,
        })
    }

    /// Applies a compressed input's transform pipeline entirely on CSF
    /// arrays.
    fn transform_compressed(
        &self,
        input: &CompressedTensor,
        tp: &TensorPlan,
        needs_swizzle: bool,
        merges: &mut Vec<MergeRecord>,
        boundaries: &mut BoundaryCache,
        published: &mut Vec<BoundaryRecord>,
    ) -> Result<CompressedTensor, SimError> {
        let mut cur: std::borrow::Cow<'_, CompressedTensor> = if needs_swizzle {
            let want: Vec<&str> = tp.initial_order.iter().map(String::as_str).collect();
            std::borrow::Cow::Owned(input.swizzle(&want)?)
        } else {
            std::borrow::Cow::Borrowed(input)
        };
        for step in &tp.steps {
            let next = match step {
                PlanStep::Swizzle(order) => {
                    if tp.online_swizzle {
                        record_merge_groups(&cur, order, merges);
                    }
                    let o: Vec<&str> = order.iter().map(String::as_str).collect();
                    cur.swizzle(&o)?
                }
                PlanStep::Flatten { upper, new_name } => cur.flatten_rank(upper, new_name)?,
                PlanStep::SplitShape {
                    rank,
                    size,
                    upper,
                    lower,
                } => cur.partition_rank(rank, SplitKind::UniformShape(*size), upper, lower)?,
                PlanStep::SplitOccLeader {
                    rank,
                    size,
                    upper,
                    lower,
                } => {
                    let bounds = cur.occupancy_boundaries_by_path(rank, *size)?;
                    published.push(BoundaryRecord {
                        rank: rank.clone(),
                        leader: cur.name().to_string(),
                        bounds: bounds.clone(),
                    });
                    boundaries.insert((rank.clone(), cur.name().to_string()), bounds);
                    cur.partition_rank(rank, SplitKind::UniformOccupancy(*size), upper, lower)?
                }
                PlanStep::SplitOccFollower {
                    rank,
                    leader,
                    size: _,
                    upper,
                    lower,
                } => {
                    let bounds = boundaries
                        .get(&(rank.clone(), leader.clone()))
                        .cloned()
                        .ok_or_else(|| SimError::MissingBoundaries {
                            rank: rank.clone(),
                            leader: leader.clone(),
                        })?;
                    cur.partition_rank(rank, SplitKind::BoundariesByPath(bounds), upper, lower)?
                }
            };
            cur = std::borrow::Cow::Owned(next);
        }
        Ok(cur.into_owned())
    }

    /// Assembles a table-accumulated output: one sort of the table's
    /// slots, drained into a builder with semiring zeros dropped. With an
    /// online swizzle the keys are first reordered into production order,
    /// built, recorded as merge groups, and swizzled back to the target
    /// order.
    fn build_output(
        &self,
        mut table: OutTable,
        instruments: &mut Instruments,
    ) -> Result<CompressedTensor, SimError> {
        let out_plan = &self.plan.output;
        let target = &out_plan.target_order;
        let zero = self.ops.semiring.zero();
        if !out_plan.online_swizzle {
            return drain(self.output_builder(target)?, zero, table.sorted());
        }
        // Build in production order first so the merge fan-in reflects
        // how the hardware sees the data, then swizzle.
        let produced = &out_plan.produced_order;
        let perm: Vec<usize> = produced
            .iter()
            .map(|r| {
                target
                    .iter()
                    .position(|t| t == r)
                    .expect("produced ⊆ target")
            })
            .collect();
        table.permute(&perm);
        let prod = drain(self.output_builder(produced)?, zero, table.sorted())?;
        record_merge_groups(&prod, target, &mut instruments.merges);
        let o: Vec<&str> = target.iter().map(String::as_str).collect();
        Ok(prod.swizzle(&o)?)
    }
}

/// Pushes sorted point entries into `builder`, dropping semiring zeros,
/// and closes it.
fn drain<'k>(
    mut builder: CompressedBuilder,
    zero: f64,
    entries: impl IntoIterator<Item = (&'k [u64], f64)>,
) -> Result<CompressedTensor, SimError> {
    for (k, v) in entries {
        if v != zero {
            builder.push_point(k, v)?;
        }
    }
    Ok(builder.finish())
}

/// Replays a transformed view's recorded side effects into this
/// execution's instruments and boundary cache — the step that makes a
/// cache hit observationally identical to running the chain.
fn apply_view_effects(
    view: &TransformedView,
    instruments: &mut Instruments,
    boundaries: &mut BoundaryCache,
) {
    instruments.merges.extend(view.merges.iter().cloned());
    for b in &view.boundaries {
        boundaries.insert((b.rank.clone(), b.leader.clone()), b.bounds.clone());
    }
}

/// Records the merge work of reordering a tensor into `new_order`: one
/// group per fiber at the common-prefix depth, with fan-in equal to that
/// fiber's occupancy (the number of sorted runs the merger combines).
fn record_merge_groups(t: &CompressedTensor, new_order: &[String], merges: &mut Vec<MergeRecord>) {
    let (name, rank_ids) = (t.name(), t.rank_ids());
    let prefix = rank_ids
        .iter()
        .zip(new_order)
        .take_while(|(a, b)| a == b)
        .count();
    if prefix >= rank_ids.len() {
        return;
    }
    let Some(root) = t.root_fiber_view() else {
        return;
    };
    fn walk(
        f: FiberView<'_>,
        depth: usize,
        target: usize,
        merges: &mut Vec<MergeRecord>,
        name: &str,
    ) {
        if depth == target {
            let elems = f.leaf_count() as u64;
            let ways = f.occupancy() as u64;
            if elems > 0 && ways > 1 {
                merges.push(MergeRecord {
                    tensor: name.to_string(),
                    elems,
                    ways,
                });
            }
            return;
        }
        for pos in 0..f.occupancy() {
            if let PayloadView::Fiber(child) = f.payload_at(pos) {
                walk(child, depth + 1, target, merges, name);
            }
        }
    }
    walk(root, 0, prefix, merges, name);
}

impl<'e, 'p> Exec<'e, 'p> {
    /// Walks the whole nest into `out` and folds the walk's dense
    /// counters into `inst` — on failure too, so a tripped budget leaves
    /// the partial counts a step-by-step walk would have left. Returns the
    /// accumulator and the first-write space ids (shard-overlap merges
    /// only).
    fn run<'v>(
        &self,
        tensors: &'v [PreparedInput<'_>],
        inst: &mut Instruments,
        out: OutAcc,
    ) -> Result<(OutAcc, FirstSpace), SimError> {
        let names = self.names;
        let mut state = State {
            nodes: names
                .access_tensor
                .iter()
                .map(|&ti| Some(tensors[ti].data().root_view()))
                .collect(),
            binds: Vec::new(),
            space: Vec::new(),
            space_slot: None,
            key: Vec::new(),
            out,
            first_space: BTreeMap::new(),
        };
        let mut scratch: Vec<LevelScratch<'v>> = names
            .levels
            .iter()
            .map(|_| LevelScratch::default())
            .collect();
        let mut walk = Walk::new(inst, names);
        for (ch, ti) in walk.chans.iter_mut().zip(&names.chan_tensor) {
            if let Some(c) = ti.map(|ti| tensors[ti].data()) {
                let lens: Vec<usize> = (0..c.order()).map(|l| c.level_len(l)).collect();
                ch.bind_levels(&lens);
            }
        }
        let walked = self.level(0, &mut scratch, &mut state, &mut walk);
        walk.fold(names);
        walked?;
        Ok((state.out, state.first_space))
    }

    /// Walks loop level `li`; `scratch` holds the buffers of levels
    /// `li..`.
    fn level<'v>(
        &self,
        li: usize,
        scratch: &mut [LevelScratch<'v>],
        state: &mut State<'v>,
        walk: &mut Walk<'_>,
    ) -> Result<(), SimError> {
        let Some((sc, deeper)) = scratch.split_first_mut() else {
            return self.leaf(state, walk);
        };
        let lp = &self.names.levels[li];
        // Shard bounds apply to the top level only: streams start at the
        // first in-range coordinate (absolute positions, so charge
        // accounting partitions the sequential run's) and stop, uncharged,
        // at the first coordinate past the range.
        let bound = if li == 0 { self.top_bounds } else { None };

        // Drivers with live fibers open this level's stream.
        sc.live.clear();
        sc.live_of.clear();
        for &ai in &lp.drivers {
            match state.nodes[ai] {
                Some(PayloadView::Fiber(f)) => {
                    sc.live_of.push(Some(sc.live.len()));
                    sc.live.push(f);
                }
                _ => sc.live_of.push(None),
            }
        }
        let mut mode = if lp.drivers.is_empty() {
            // Dense iteration over the rank's extent (affine kernels).
            let extent = lp.dense_extent.ok_or_else(|| SimError::MissingExtent {
                rank: lp.dense_root.clone(),
            })?;
            match bound {
                Some((lo, hi)) => Mode::Dense {
                    next: lo.min(extent),
                    end: hi.min(extent),
                },
                None => Mode::Dense {
                    next: 0,
                    end: extent,
                },
            }
        } else if self.union_mode {
            if sc.live.is_empty() {
                Mode::Empty
            } else {
                sc.union.restart(&sc.live, bound);
                Mode::Union
            }
        } else {
            // Intersection mode: a dead driver kills the whole subtree.
            if sc.live.len() != lp.drivers.len() {
                return Ok(());
            }
            sc.intersect.restart(&sc.live, self.engine.policy, bound);
            Mode::Intersect
        };

        sc.saved.clear();
        sc.saved.extend_from_slice(&state.nodes);
        let binds_depth = state.binds.len();
        let mut visits = 0u64;
        let mut pi = 0u64;
        loop {
            let coord = match &mut mode {
                Mode::Dense { next, end } => {
                    if *next >= *end {
                        break;
                    }
                    *next += 1;
                    CoordKey::Point(*next - 1)
                }
                Mode::Union => match sc.union.advance() {
                    Some(c) => c,
                    None => break,
                },
                Mode::Intersect => match sc.intersect.advance() {
                    Some(c) => c,
                    None => break,
                },
                Mode::Empty => break,
            };
            visits += 1;
            for &ci in &lp.evict {
                walk.chans[ci].advance_epoch();
            }
            if lp.evict_output {
                walk.output.advance_epoch();
            }
            // One engine step per loop-rank visit; the token amortizes
            // its own deadline polling, so this is one relaxed
            // fetch_add + compare on the hot path.
            if let Some(token) = &self.engine.cancel {
                token.charge_steps(1)?;
            }

            // Bind loop variables (needed by affine descents below).
            for &(root, comp) in &lp.binds {
                if let Some(v) = coord.component(comp).and_then(|c| c.as_point()) {
                    state.binds.push((root, v));
                }
            }

            let mut dead_product = false;

            // Drivers descend (dead union drivers stay `None`).
            for (di, &ai) in lp.drivers.iter().enumerate() {
                let hit = match mode {
                    Mode::Intersect => Some((sc.live[di], sc.intersect.positions()[di])),
                    Mode::Union => sc.live_of[di]
                        .and_then(|l| sc.union.positions()[l].map(|p| (sc.live[l], p))),
                    Mode::Dense { .. } | Mode::Empty => None,
                };
                match hit {
                    Some((fiber, p)) => {
                        let pv = fiber.payload_at(p);
                        self.touch(ai, li, fiber, p, pv, walk);
                        state.nodes[ai] = Some(pv);
                    }
                    None => {
                        state.nodes[ai] = None;
                        if !self.union_mode {
                            dead_product = true;
                        }
                    }
                }
            }

            // Non-driver descents: projections and affine lookups.
            if !dead_product {
                for (ai, lookup) in &lp.lookups {
                    let ai = *ai;
                    let next = match state.nodes[ai] {
                        Some(PayloadView::Fiber(f)) => {
                            let pos = match lookup {
                                Lookup::Project { component } => {
                                    f.position_of_key(&coord.component(*component).unwrap_or(coord))
                                }
                                Lookup::Affine { vars, offset } => {
                                    affine_index(vars, *offset, &state.binds)
                                        .and_then(|c| f.position_of_key(&CoordKey::Point(c)))
                                }
                            };
                            match pos {
                                Some(p) => {
                                    let pv = f.payload_at(p);
                                    self.touch(ai, li, f, p, pv, walk);
                                    Some(pv)
                                }
                                None => None,
                            }
                        }
                        _ => None,
                    };
                    state.nodes[ai] = next;
                    if next.is_none() && !self.union_mode {
                        dead_product = true;
                        break;
                    }
                }
            }

            let all_dead = state.nodes.iter().all(Option::is_none);
            if !dead_product && !all_dead {
                if lp.is_space {
                    state.space.push(pi);
                    state.space_slot = None;
                }
                self.level(li + 1, deeper, state, walk)?;
                if lp.is_space {
                    state.space.pop();
                }
            }

            state.nodes.copy_from_slice(&sc.saved);
            state.binds.truncate(binds_depth);
            pi += 1;
        }

        *walk.visits[li].get_or_insert(0) += visits;
        // Intersection-unit work, now that the stream is drained. A single
        // live operand co-iterates without an intersection unit.
        match mode {
            Mode::Union => {
                *walk.comparisons[li].get_or_insert(0) += if sc.live.len() > 1 {
                    sc.union.stats().comparisons
                } else {
                    0
                };
            }
            Mode::Intersect if sc.live.len() > 1 => {
                *walk.comparisons[li].get_or_insert(0) += sc.intersect.stats().comparisons;
            }
            _ => {}
        }
        Ok(())
    }

    /// Charges access `ai`'s touch at level `li` of element `p` of
    /// `fiber`, named by its CSF position.
    fn touch(
        &self,
        ai: usize,
        li: usize,
        fiber: FiberView<'_>,
        p: usize,
        payload: PayloadView<'_>,
        walk: &mut Walk<'_>,
    ) {
        if let Some(t) = &self.names.touches[ai][li] {
            walk.reads[t.read] += 1;
            let (level, pos) = fiber.csf_position(p);
            walk.chans[t.chan].touch(&t.slot, level, pos, payload);
        }
    }

    fn leaf(&self, state: &mut State<'_>, walk: &mut Walk<'_>) -> Result<(), SimError> {
        let plan = self.engine.plan;
        let ops = &self.engine.ops;
        let zero = ops.semiring.zero();

        let scalar = |n: &Option<PayloadView<'_>>| -> Option<f64> {
            match n {
                Some(PayloadView::Val(v)) => Some(*v),
                _ => None,
            }
        };

        let (value, muls, term_adds) = match &plan.equation.rhs {
            Rhs::Take { args: _, which } => {
                if state.nodes.iter().any(Option::is_none) {
                    return Ok(());
                }
                let w = self.take_which.unwrap_or(*which);
                match scalar(&state.nodes[w]) {
                    Some(v) => (v, 0u64, 0u64),
                    None => return Ok(()),
                }
            }
            Rhs::SumOfProducts(terms) => {
                let mut acc = zero;
                let mut present_terms = 0u64;
                let mut muls = 0u64;
                let mut ai = 0usize;
                for (sign, product) in terms {
                    let mut tv = ops.semiring.one();
                    let mut present = true;
                    let mut factors = 0u64;
                    for _ in &product.factors {
                        match scalar(&state.nodes[ai]) {
                            Some(v) => {
                                tv = ops.semiring.mul(tv, v);
                                factors += 1;
                            }
                            None => present = false,
                        }
                        ai += 1;
                    }
                    if present {
                        muls += factors.saturating_sub(1);
                        present_terms += 1;
                        acc = match sign {
                            teaal_core::einsum::Sign::Plus => ops.semiring.add(acc, tv),
                            teaal_core::einsum::Sign::Minus => (ops.sub)(acc, tv),
                        };
                    } else if matches!(sign, teaal_core::einsum::Sign::Minus) && !self.union_mode {
                        return Ok(());
                    }
                }
                if present_terms == 0 || ops.is_zero(acc) {
                    return Ok(());
                }
                // Combining k present terms costs k−1 additions (the apply
                // operations of vertex-centric cascades).
                (acc, muls, present_terms - 1)
            }
        };

        // Output key in target rank order.
        let State {
            binds,
            space,
            space_slot,
            key,
            out,
            first_space,
            ..
        } = state;
        key.clear();
        for &r in &self.names.out_roots {
            match binds.iter().rev().find(|(b, _)| *b == r) {
                Some(&(_, v)) => key.push(v),
                None => return Ok(()), // unbound output rank: outside iteration
            }
        }

        let is_take = self.take_which.is_some();
        let mut adds = term_adds;
        match out {
            OutAcc::Table(table) => match table.probe(key) {
                Ok(slot) => {
                    let (existing, last) = table.entry_mut(slot);
                    if !is_take {
                        *existing = ops.semiring.add(*existing, value);
                        adds += 1;
                    }
                    walk.output.update(last);
                }
                Err(at) => {
                    if let Some(token) = &self.engine.cancel {
                        token.charge_outputs(1)?;
                    }
                    if self.record_first_space {
                        first_space.insert(key.clone(), space.clone());
                    }
                    table.insert(at, key, value, walk.output.write());
                }
            },
            OutAcc::Stream { builder, pending } => match pending {
                // Concordance makes equal keys adjacent: reduce in place
                // while the key repeats, push the finished entry when it
                // changes.
                Some((pk, pv, last)) if pk == key => {
                    if !is_take {
                        *pv = ops.semiring.add(*pv, value);
                        adds += 1;
                    }
                    walk.output.update(last);
                }
                _ => {
                    if let Some(token) = &self.engine.cancel {
                        token.charge_outputs(1)?;
                    }
                    match pending {
                        Some((pk, pv, last)) => {
                            if *pv != zero {
                                builder.push_point(pk, *pv)?;
                            }
                            pk.clone_from(key);
                            *pv = value;
                            *last = walk.output.write();
                        }
                        None => *pending = Some((key.clone(), value, walk.output.write())),
                    }
                }
            },
        }

        if muls + adds > 0 {
            let slot = *space_slot.get_or_insert_with(|| walk.compute.slot(space));
            walk.compute.charge(slot, muls, adds);
        }
        Ok(())
    }
}

/// Evaluates an affine index over the bound loop variables (innermost
/// binding wins): `None` when a variable is unbound or the index is
/// negative, as [`teaal_core::einsum::IndexExpr::eval`].
fn affine_index(vars: &[usize], offset: i64, binds: &[(usize, u64)]) -> Option<u64> {
    let mut acc = offset;
    for v in vars {
        let &(_, x) = binds.iter().rev().find(|(r, _)| r == v)?;
        acc += x as i64;
    }
    u64::try_from(acc).ok()
}
