//! The top-level performance model (paper §4.3, Fig. 6).
//!
//! [`Simulator`] composes the back half of the staged evaluation
//! pipeline: given a [`CompiledPlan`] (lowering, fusion blocks, bindings
//! resolved — the data-free front half), execute each Einsum on real
//! tensors with the instrumented engine, convert the resulting action
//! counts into per-component busy times, apply the per-block bottleneck
//! analysis (blocks inferred by the §4.3 fusion criteria), and translate
//! action counts into energy.
//!
//! The compiled plan is shared behind an [`Arc`]: a mapper probing
//! hundreds of loop orders or a batch of requests builds many cheap
//! `Simulator` values over one compilation. Attaching an
//! [`EvalContext`] ([`Simulator::with_context`]) additionally routes
//! input transforms through the context's transform cache
//! and enables whole-report caching ([`Simulator::run_data_cached`]) —
//! without changing any result bit.
//!
//! A cascade runs in dependency waves: the Einsums whose producers have
//! all completed form a wave, and a wave fans out on the shared worker
//! pool ([`crate::par`]), at most [`Simulator::with_threads`] Einsums at
//! once, which split that cap among their shard workers. A panicking Einsum comes back as [`SimError::WorkerPanic`] (site
//! `"wave"`), on one thread or many.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use teaal_core::ir::{EinsumBlock, EinsumPlan};
use teaal_core::spec::{ComponentClass, ComputeOp, TeaalSpec, TensorFormat};
use teaal_core::TeaalSpec as Spec;
use teaal_fibertree::{CompressedTensor, IntersectPolicy, Tensor, TensorData};

use crate::compile::CompiledPlan;
use crate::counters::Instruments;
use crate::energy::{ActionCounts, EnergyTable};
use crate::engine::{BoundaryCache, Engine};
use crate::error::SimError;
use crate::limits::{CancelToken, EvalLimits};
use crate::ops::OpTable;
use crate::par;
use crate::pipeline::EvalContext;
use crate::report::{passes_for, BlockStats, EinsumStats, SimReport, TensorTraffic};

/// A configured simulator for one TeAAL specification.
///
/// # Examples
///
/// ```
/// use teaal_sim::Simulator;
/// use teaal_core::TeaalSpec;
/// use teaal_fibertree::Tensor;
///
/// let spec = TeaalSpec::parse(concat!(
///     "einsum:\n",
///     "  declaration:\n",
///     "    A: [K, M]\n",
///     "    B: [K, N]\n",
///     "    Z: [M, N]\n",
///     "  expressions:\n",
///     "    - Z[m, n] = A[k, m] * B[k, n]\n",
/// ))?;
/// let sim = Simulator::new(spec)?;
/// let a = Tensor::from_entries("A", &["K", "M"], &[2, 2],
///     vec![(vec![0, 0], 1.0), (vec![1, 1], 2.0)]).unwrap();
/// let b = Tensor::from_entries("B", &["K", "N"], &[2, 2],
///     vec![(vec![0, 1], 3.0), (vec![1, 0], 4.0)]).unwrap();
/// let report = sim.run(&[a, b])?;
/// let z = report.final_output().unwrap();
/// assert_eq!(z.get(&[0, 1]), Some(3.0)); // A[0,0] * B[0,1]
/// assert_eq!(z.get(&[1, 0]), Some(8.0)); // A[1,1] * B[1,0]
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Simulator {
    compiled: Arc<CompiledPlan>,
    ops: OpTable,
    extent_overrides: BTreeMap<String, u64>,
    energy: EnergyTable,
    /// Worker cap for shard- and cascade-parallel execution.
    threads: usize,
    /// Shared pipeline caches, when attached.
    context: Option<Arc<EvalContext>>,
    /// Cooperative budget/cancellation token, when attached.
    cancel: Option<CancelToken>,
}

/// The default worker count for parallel execution: the `TEAAL_THREADS`
/// environment variable when set to a positive integer, otherwise 1
/// (sequential). The CLI's `--threads` flag overrides it.
pub fn default_threads() -> usize {
    std::env::var("TEAAL_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Compresses an owned tensor into the CSF storage every evaluation
/// reads ([`CompressedTensor::from_tensor`], the one owned→CSF
/// conversion). The [`Simulator`] entry points convert each owned input
/// once per call; callers that evaluate one dataset many times (`teaal
/// batch` and `serve`, the mapper search) call this once up front.
///
/// # Errors
///
/// Returns [`SimError::Fibertree`] when a rank shape or a leaf has no
/// compressed form.
pub fn compress(t: &Tensor) -> Result<CompressedTensor, SimError> {
    Ok(CompressedTensor::from_tensor(t)?)
}

/// The inputs as CSF: compressed inputs borrowed, owned ones converted.
fn csf_inputs<'a>(inputs: &[&'a TensorData]) -> Result<Vec<Cow<'a, CompressedTensor>>, SimError> {
    inputs.iter().map(|t| Ok(t.compressed()?)).collect()
}

impl Simulator {
    /// Lowers the specification and prepares a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] when lowering fails.
    pub fn new(spec: Spec) -> Result<Self, SimError> {
        Ok(Simulator::from_compiled(Arc::new(CompiledPlan::compile(
            spec,
        )?)))
    }

    /// Wraps an already-compiled plan — the cheap constructor the staged
    /// pipeline uses: compilation happens once
    /// ([`EvalContext::compiled`]), execution state many times.
    pub fn from_compiled(compiled: Arc<CompiledPlan>) -> Self {
        Simulator {
            compiled,
            ops: OpTable::arithmetic(),
            extent_overrides: BTreeMap::new(),
            energy: EnergyTable::default(),
            threads: default_threads(),
            context: None,
            cancel: None,
        }
    }

    /// Attaches shared pipeline caches: input transforms route through
    /// the context's transform cache
    /// and [`Simulator::run_data_cached`] can reuse whole reports.
    /// Results are bit-identical with or without a context.
    pub fn with_context(mut self, context: Arc<EvalContext>) -> Self {
        self.context = Some(context);
        self
    }

    /// Attaches resource budgets ([`EvalLimits`]). The cancellation
    /// token is created *now* — the deadline clock starts at this call
    /// and spans every subsequent `run_*`, so a multi-run session (graph
    /// supersteps, retries) shares one budget. A tripped budget returns
    /// the matching structured [`SimError`]
    /// ([`SimError::DeadlineExceeded`] / [`SimError::BudgetExceeded`])
    /// carrying the telemetry gathered so far. `max_resident_cache_bytes`
    /// is not read here: whoever owns the [`EvalContext`] bounds its
    /// caches ([`EvalContext::set_max_cache_bytes`]).
    #[must_use]
    pub fn with_limits(mut self, limits: EvalLimits) -> Self {
        self.cancel = Some(CancelToken::new(&limits));
        self
    }

    /// Shares an existing cancellation token (e.g. one held by a server
    /// so in-flight evaluations can be cancelled externally).
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Replaces the operator table (e.g. [`OpTable::sssp`] for graph
    /// kernels).
    pub fn with_ops(mut self, ops: OpTable) -> Self {
        self.ops = ops;
        self
    }

    /// Sets the worker cap for parallel execution (default:
    /// [`default_threads`]).
    ///
    /// With `n > 1`, independent Einsums of a cascade run concurrently,
    /// at most `n` at a time on the worker pool ([`crate::par`]), and
    /// each eligible Einsum shards its top loop rank across its share of
    /// `n`: `n / min(w, n)` workers in a wave of `w` Einsums
    /// ([`Engine::with_threads`]). Reports stay
    /// bit-identical to `n = 1` — the merge is deterministic and the
    /// shard-exactness analysis falls back to sequential execution
    /// whenever it cannot prove equality.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Declares the extent of a rank no input tensor carries (needed for
    /// dense/affine iteration, e.g. the output rank of a convolution).
    pub fn with_rank_extent(mut self, rank: &str, extent: u64) -> Self {
        self.extent_overrides.insert(rank.to_string(), extent);
        self
    }

    /// Replaces the energy table.
    pub fn with_energy(mut self, energy: EnergyTable) -> Self {
        self.energy = energy;
        self
    }

    /// The lowered plans (for inspection and tests).
    pub fn plans(&self) -> &[EinsumPlan] {
        self.compiled.plans()
    }

    /// The inferred fusion blocks.
    pub fn blocks(&self) -> &[EinsumBlock] {
        self.compiled.blocks()
    }

    /// The specification.
    pub fn spec(&self) -> &TeaalSpec {
        self.compiled.spec()
    }

    /// The shared compiled plan.
    pub fn compiled(&self) -> &Arc<CompiledPlan> {
        &self.compiled
    }

    /// The format an Einsum's output is written back to DRAM in, or
    /// `None` when it never leaves the chip: an intermediate kept on chip
    /// by fusion, or an output [pinned](crate::compile::is_pinned) in
    /// buffets. The one output-write gate of both the engine's statistics
    /// and the estimator.
    pub(crate) fn output_write_format(&self, plan: &EinsumPlan) -> Option<TensorFormat> {
        let spec = self.spec();
        let name = plan.equation.name();
        let binding = spec.binding.for_einsum(name);
        if self.compiled.on_chip().contains(name) || crate::compile::is_pinned(spec, &binding, name)
        {
            return None;
        }
        Some(
            spec.format
                .config_or_default(name, None, &plan.output.target_order),
        )
    }

    /// The declared extent overrides.
    pub(crate) fn extent_overrides(&self) -> &BTreeMap<String, u64> {
        &self.extent_overrides
    }

    /// Resolves the intersection policy for an Einsum (precomputed at
    /// compile time).
    pub(crate) fn intersect_policy(&self, plan: &EinsumPlan) -> IntersectPolicy {
        self.compiled.policy_for(plan)
    }

    /// A fresh instrumentation set for one Einsum execution (cloned from
    /// the compile-time template).
    pub(crate) fn build_instruments(&self, plan: &EinsumPlan) -> Instruments {
        self.compiled.instruments_for(plan)
    }

    /// Runs the cascade on the given input tensors (matched by name).
    ///
    /// Convenience wrapper over [`Simulator::run_data`] for owned
    /// tensors; each input is [`compress`]ed once, straight from the
    /// borrowed tree, into the CSF storage the walk reads.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when inputs are missing or execution fails.
    pub fn run(&self, inputs: &[Tensor]) -> Result<SimReport, SimError> {
        let data = inputs.iter().map(compress).collect::<Result<Vec<_>, _>>()?;
        self.run_impl(&data.iter().collect::<Vec<_>>())
    }

    /// Runs the cascade on borrowed inputs in either representation.
    ///
    /// Compressed inputs are *borrowed*, not cloned: a large compressed
    /// tensor (a graph adjacency, a SuiteSparse-scale matrix) can be
    /// reused across many runs — the graph driver re-executes its cascade
    /// every superstep against the same [`TensorData`]. The nest walk
    /// reads CSF only, so an owned input is [`compress`]ed once per call
    /// and shared by every Einsum of the cascade. Outputs (and therefore
    /// intermediates) are always CSF, assembled through a streaming
    /// [`CompressedBuilder`](teaal_fibertree::CompressedBuilder), and every
    /// input transform chain runs on CSF arrays. Results are
    /// representation-independent: the same content yields bit-identical
    /// instrument counters and outputs whether inputs arrive owned or
    /// compressed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when inputs are missing or execution fails.
    pub fn run_data(&self, inputs: &[&TensorData]) -> Result<SimReport, SimError> {
        let csf = csf_inputs(inputs)?;
        self.run_impl(&csf.iter().map(|c| &**c).collect::<Vec<_>>())
    }

    /// [`Simulator::run_data`] behind the report cache: with a context
    /// attached, a repeated evaluation of the same `(plan, operator
    /// table, extents, energy, inputs)` returns the shared report
    /// without executing anything. Without a context this is exactly
    /// `run_data` in an [`Arc`].
    ///
    /// The cache key deliberately excludes the thread count — parallel
    /// execution is pinned bit-identical to sequential, so any `n` may
    /// serve any other's report. Keying reads every input's memoized
    /// content hash, so a compressed input held across calls (`teaal
    /// batch`, `teaal serve`) is hashed once; an owned input is
    /// compressed and hashed on every call.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run_data`] (errors are never cached).
    pub fn run_data_cached(&self, inputs: &[&TensorData]) -> Result<Arc<SimReport>, SimError> {
        let Some(ctx) = self.context.clone() else {
            return self.run_data(inputs).map(Arc::new);
        };
        let csf = csf_inputs(inputs)?;
        let csf: Vec<&CompressedTensor> = csf.iter().map(|c| &**c).collect();
        ctx.reports
            .get_or_try_insert_with(self.report_key(&csf), || {
                let report = self.run_impl(&csf)?;
                let outputs: u64 = report.outputs.values().map(TensorData::approx_bytes).sum();
                Ok((report, outputs + 256))
            })
    }

    /// Exactly [`Simulator::run_data`], whose outputs are already CSF.
    /// Kept because the benchmark package calls it by this name.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run_data`].
    pub fn run_data_compressed(&self, inputs: &[&TensorData]) -> Result<SimReport, SimError> {
        self.run_data(inputs)
    }

    /// The content key [`Simulator::run_data_cached`] stores reports
    /// under: plan hash, operator-table identity, extent overrides,
    /// energy table bits, and every input's content hash (name-sorted —
    /// input order never affects results).
    fn report_key(&self, inputs: &[&CompressedTensor]) -> u64 {
        let mut h = teaal_core::canon::Fnv1a::new();
        h.write_str("sim-report-v1");
        h.write_u64(self.compiled.spec_hash());
        h.write_str(self.ops.semiring.name());
        // Closures without captures coerce to unique fn items: the
        // pointer identifies the `-` interpretation within this process
        // (the cache is process-local, like every other stage).
        h.write_u64(self.ops.sub as usize as u64);
        h.write_u64(u64::from(self.ops.exact_add));
        for (rank, extent) in &self.extent_overrides {
            h.write_str(rank);
            h.write_u64(*extent);
        }
        for v in [
            self.energy.dram_pj_per_bit,
            self.energy.buffer_pj_per_bit,
            self.energy.mul_pj,
            self.energy.add_pj,
            self.energy.intersect_pj,
            self.energy.merge_pj_per_elem,
        ] {
            h.write_f64(v);
        }
        let mut input_keys: Vec<(String, u64)> = inputs
            .iter()
            .map(|t| (t.name().to_string(), t.content_hash()))
            .collect();
        input_keys.sort();
        h.write_u64(input_keys.len() as u64);
        for (name, content) in input_keys {
            h.write_str(&name);
            h.write_u64(content);
        }
        h.finish()
    }

    fn run_impl(&self, inputs: &[&CompressedTensor]) -> Result<SimReport, SimError> {
        let plans = self.compiled.plans();
        // Rank extents from input shapes plus overrides.
        let mut base_extents: BTreeMap<String, u64> = BTreeMap::new();
        for t in inputs {
            for (i, r) in t.rank_ids().iter().enumerate() {
                let e = t.rank_shapes()[i].extent();
                let entry = base_extents.entry(r.clone()).or_insert(e);
                *entry = (*entry).max(e);
            }
        }
        base_extents.extend(self.extent_overrides.clone());

        // Execute the cascade in dependency waves: every Einsum whose
        // producers (data, write-after-write, and learned-extent
        // dependencies) have completed runs concurrently with the rest of
        // its wave, at most `threads` at once. Each Einsum sees exactly
        // the environment and extents its sequential position would —
        // outputs and learned extents of plans *before* it, in plan order
        // — so reports are bit-identical to the sequential schedule.
        let n = plans.len();
        let deps = self.plan_dependencies(&base_extents);
        let mut outputs: Vec<Option<CompressedTensor>> = (0..n).map(|_| None).collect();
        let mut stats: Vec<Option<EinsumStats>> = (0..n).map(|_| None).collect();
        let mut remaining = n;
        while remaining > 0 {
            // Wave boundary: a budget tripped by an earlier Einsum
            // returns before the next wave spawns workers.
            if let Some(token) = &self.cancel {
                token.checkpoint()?;
            }
            let wave: Vec<usize> = (0..n)
                .filter(|&i| outputs[i].is_none() && deps[i].iter().all(|&d| outputs[d].is_some()))
                .collect();
            debug_assert!(!wave.is_empty(), "intra-cascade dependencies are acyclic");
            let shard_threads = engine_threads(self.threads, wave.len());

            let run_one = |i: usize| -> Result<(Instruments, CompressedTensor), SimError> {
                let plan = &plans[i];
                // Extents as the sequential run would know them here:
                // base extents plus those learned from earlier outputs,
                // first introduction winning in plan order.
                let mut extents = base_extents.clone();
                for o in outputs[..i].iter().flatten() {
                    for (ri, r) in o.rank_ids().iter().enumerate() {
                        extents
                            .entry(r.clone())
                            .or_insert_with(|| o.rank_shapes()[ri].extent());
                    }
                }
                let mut instruments = self.build_instruments(plan);
                let policy = self.intersect_policy(plan);
                let mut engine =
                    Engine::new(plan, self.ops, policy, extents).with_threads(shard_threads);
                if let Some(ctx) = &self.context {
                    engine = engine.with_transform_cache(Arc::clone(ctx.transforms()));
                }
                if let Some(token) = &self.cancel {
                    engine = engine.with_cancel(token.clone());
                }
                let mut boundaries = BoundaryCache::new();
                // Later entries shadow earlier ones, so intermediates win
                // over same-named inputs (as the cascade requires).
                let env: BTreeMap<String, &CompressedTensor> = inputs
                    .iter()
                    .copied()
                    .chain(outputs[..i].iter().flatten())
                    .map(|t| (t.name().to_string(), t))
                    .collect();
                let out = engine.execute_data(&env, &mut instruments, &mut boundaries)?;
                Ok((instruments, out))
            };

            // At most `threads` Einsums of the wave run at once; a
            // panicking one becomes that Einsum's structured error.
            let results = par::map(&wave, self.threads, |&i| run_one(i));

            for (&i, res) in wave.iter().zip(results) {
                let (instruments, output) = res.unwrap_or_else(|message| {
                    Err(SimError::WorkerPanic {
                        site: "wave".into(),
                        message,
                    })
                })?;
                stats[i] = Some(self.collect_stats(&plans[i], &instruments, &output));
                outputs[i] = Some(output);
                remaining -= 1;
            }
        }

        let mut report = SimReport::default();
        for i in 0..n {
            let output = outputs[i].take().expect("every plan completed");
            report
                .einsums
                .push(stats[i].take().expect("stats follow outputs"));
            report
                .outputs
                .insert(output.name().to_string(), TensorData::Compressed(output));
        }

        self.analyze_time(&mut report)?;
        self.analyze_energy(&mut report);
        Ok(report)
    }

    /// Per-plan dependency sets over earlier plans: data (reads an
    /// earlier output), write-after-write (same output name), and
    /// learned-extent (an earlier output introduces an extent for a rank
    /// this plan references that no input tensor declares).
    fn plan_dependencies(&self, known_extents: &BTreeMap<String, u64>) -> Vec<Vec<usize>> {
        let plans = self.compiled.plans();
        let n = plans.len();
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (j, dj) in deps.iter_mut().enumerate().take(n) {
            let pj = &plans[j];
            let reads: std::collections::BTreeSet<&str> = pj
                .tensor_plans
                .iter()
                .map(|tp| tp.tensor.as_str())
                .collect();
            let mut refs: std::collections::BTreeSet<&str> =
                pj.output.target_order.iter().map(String::as_str).collect();
            for lr in &pj.loop_ranks {
                refs.insert(lr.name.as_str());
                for (r, _) in &lr.binds {
                    refs.insert(r.as_str());
                }
            }
            for (i, pi) in plans.iter().enumerate().take(j) {
                let data = reads.contains(pi.output.tensor.as_str());
                let waw = pi.output.tensor == pj.output.tensor;
                let extent = pi.output.target_order.iter().any(|r| {
                    !known_extents.contains_key(r)
                        && !self.extent_overrides.contains_key(r)
                        && refs.contains(r.as_str())
                });
                if data || waw || extent {
                    dj.push(i);
                }
            }
        }
        deps
    }

    fn collect_stats(
        &self,
        plan: &EinsumPlan,
        instruments: &Instruments,
        output: &CompressedTensor,
    ) -> EinsumStats {
        let output_write_bytes = self.output_write_format(plan).map_or(0, |fmt| {
            fmt.footprint_from_parts(
                output.rank_ids(),
                output.rank_shapes(),
                &output.rank_stats(),
            )
        });

        let mut traffic = Vec::new();
        for tp in &plan.tensor_plans {
            if let Some(ch) = instruments.tensors.get(&tp.tensor) {
                traffic.push(TensorTraffic {
                    tensor: tp.tensor.clone(),
                    fill_bytes: ch.fill_bits.div_ceil(8),
                    buffer_read_bytes: ch.buffer_read_bits.div_ceil(8),
                    reads: ch.reads_by_rank.values().sum(),
                });
            }
        }

        EinsumStats {
            einsum: plan.equation.name().to_string(),
            traffic,
            output_write_bytes,
            output_partial_bytes: (instruments.output.drain_bits + instruments.output.refill_bits)
                .div_ceil(8),
            output_writes: instruments.output.writes,
            output_updates: instruments.output.updates,
            muls: instruments.compute.total_muls(),
            adds: instruments.compute.total_adds(),
            max_pe_ops: instruments.compute.max_per_pe(),
            spaces: instruments.compute.spaces(),
            intersections: instruments.total_intersections(),
            merges: instruments.merges.clone(),
            loop_visits: instruments.loop_visits.clone(),
        }
    }

    pub(crate) fn analyze_time(&self, report: &mut SimReport) -> Result<(), SimError> {
        let spec = self.compiled.spec();
        let clock = if spec.architecture.clock_hz > 0.0 {
            spec.architecture.clock_hz
        } else {
            1e9
        };
        for block in self.compiled.blocks() {
            let mut bs = BlockStats::default();
            let mut dram_bytes = 0u64;
            let mut buffer_bytes = 0u64;
            let mut muls = 0u64;
            let mut adds = 0u64;
            let mut max_pe = 0u64;
            let mut isect = 0u64;
            let mut visits = 0u64;
            let mut merge_elems: Vec<(u64, u64)> = Vec::new();
            let mut binding_cfg = None;
            for &m in &block.members {
                let stats = &report.einsums[m];
                bs.members.push(stats.einsum.clone());
                dram_bytes += stats.dram_bytes();
                buffer_bytes += stats
                    .traffic
                    .iter()
                    .map(|t| t.buffer_read_bytes)
                    .sum::<u64>();
                muls += stats.muls;
                adds += stats.adds;
                max_pe += stats.max_pe_ops;
                isect += stats.intersections;
                visits += stats.loop_visits.values().sum::<u64>();
                merge_elems.extend(stats.merges.iter().map(|g| (g.elems, g.ways)));
                if binding_cfg.is_none() {
                    binding_cfg = spec.binding.for_einsum(&stats.einsum).arch_config.clone();
                }
            }

            let arch = spec.architecture.config(binding_cfg.as_deref());

            // DRAM time.
            let dram_bw = arch
                .and_then(|a| {
                    a.all_components()
                        .into_iter()
                        .find_map(|(c, _)| match &c.class {
                            ComponentClass::Dram { bandwidth } => Some(*bandwidth),
                            _ => None,
                        })
                })
                .unwrap_or(64e9);
            bs.component_seconds
                .insert("DRAM".into(), dram_bytes as f64 / dram_bw);

            // Buffer time (aggregate across buffers).
            let buf_bw = arch
                .and_then(|a| {
                    a.all_components()
                        .into_iter()
                        .find_map(|(c, n)| match &c.class {
                            ComponentClass::Buffer { bandwidth, .. } => Some(*bandwidth * n as f64),
                            _ => None,
                        })
                })
                .unwrap_or(1e12);
            bs.component_seconds
                .insert("Buffers".into(), buffer_bytes as f64 / buf_bw);

            // Compute time: per-PE bottleneck with instance counts.
            let (mul_units, add_units) = arch
                .map(|a| {
                    let mut mu = 0u64;
                    let mut au = 0u64;
                    for (c, n) in a.all_components() {
                        if let ComponentClass::Compute { op } = &c.class {
                            match op {
                                ComputeOp::Mul => mu += n,
                                ComputeOp::Add => au += n,
                            }
                        }
                    }
                    (mu.max(1), au.max(1))
                })
                .unwrap_or((1, 1));
            let compute_cycles = (max_pe as f64)
                .max(muls as f64 / mul_units as f64)
                .max(adds as f64 / add_units as f64);
            bs.component_seconds
                .insert("Compute".into(), compute_cycles / clock);

            // Intersection time.
            let isect_units = arch
                .map(|a| {
                    a.all_components()
                        .into_iter()
                        .filter(|(c, _)| matches!(c.class, ComponentClass::Intersect { .. }))
                        .map(|(_, n)| n)
                        .sum::<u64>()
                })
                .filter(|&n| n > 0);
            if let Some(n) = isect_units {
                bs.component_seconds
                    .insert("Intersect".into(), isect as f64 / n as f64 / clock);
            } else if isect > 0 {
                // Intersections ride on the sequencers/PEs: one comparison
                // per cycle across the compute units.
                bs.component_seconds.insert(
                    "Intersect".into(),
                    isect as f64 / mul_units.max(1) as f64 / clock,
                );
            }

            // Sequencer time: one coordinate generated per cycle per
            // sequencer instance (Table 3's num_ranks scales throughput).
            let sequencer = arch.and_then(|a| {
                a.all_components()
                    .into_iter()
                    .find_map(|(c, n)| match &c.class {
                        ComponentClass::Sequencer { num_ranks } => {
                            Some(((*num_ranks).max(1), n.max(1)))
                        }
                        _ => None,
                    })
            });
            if let Some((num_ranks, seqs)) = sequencer {
                bs.component_seconds.insert(
                    "Sequencer".into(),
                    visits as f64 / num_ranks as f64 / seqs as f64 / clock,
                );
            }

            // Merger time — charged only when the architecture has merge
            // hardware; designs whose distribution network reorders data
            // in flight (SIGMA) absorb the swizzle in the dataflow.
            let merger = arch.and_then(|a| {
                a.all_components()
                    .into_iter()
                    .find_map(|(c, n)| match &c.class {
                        ComponentClass::Merger {
                            comparator_radix,
                            outputs,
                            ..
                        } => Some((*comparator_radix, (*outputs).max(1), n)),
                        _ => None,
                    })
            });
            if let Some((radix, outputs, mergers)) = merger {
                let merge_passes: u64 = merge_elems
                    .iter()
                    .map(|(e, w)| e * passes_for(*w, radix))
                    .sum();
                if merge_passes > 0 {
                    bs.component_seconds.insert(
                        "Merger".into(),
                        merge_passes as f64 / outputs as f64 / mergers as f64 / clock,
                    );
                }
            }

            // `total_cmp` orders NaN above +∞, so a degenerate component
            // time (e.g. 0/0 from a zero-bandwidth DRAM with no traffic)
            // surfaces as the maximum and is rejected below instead of
            // panicking mid-comparison or silently reporting NaN seconds.
            let (bottleneck, seconds) = bs
                .component_seconds
                .iter()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(k, v)| (k.clone(), *v))
                .unwrap_or(("Compute".into(), 0.0));
            if !seconds.is_finite() {
                return Err(SimError::NonFiniteTime {
                    component: bottleneck,
                });
            }
            bs.bottleneck = bottleneck;
            bs.seconds = seconds;
            report.seconds += seconds;
            report.blocks.push(bs);
        }
        report.cycles = report.seconds * clock;
        Ok(())
    }

    pub(crate) fn analyze_energy(&self, report: &mut SimReport) {
        let mut actions = ActionCounts::default();
        for e in &report.einsums {
            actions.dram_bits += e.dram_bytes() * 8;
            actions.buffer_bits += e
                .traffic
                .iter()
                .map(|t| t.buffer_read_bytes * 8)
                .sum::<u64>();
            actions.muls += e.muls;
            actions.adds += e.adds;
            actions.intersections += e.intersections;
            actions.merge_elem_passes += e.merge_elem_passes(64);
        }
        report.energy_joules = actions.energy_joules(&self.energy);
        report.actions = actions;
    }
}

/// Shard workers per engine in a wave of `wave` Einsums under a `threads`
/// cap: the Einsums running at once split the cap, so the wave and shard
/// levels together never run more than `threads` workers.
fn engine_threads(threads: usize, wave: usize) -> usize {
    (threads / wave.min(threads).max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::engine_threads;

    #[test]
    fn wave_engines_split_the_thread_cap() {
        // (threads, wave size, shard workers per engine)
        for (threads, wave, want) in [
            (1, 1, 1),
            (1, 3, 1),
            (4, 1, 4),
            (4, 2, 2),
            (4, 3, 1),
            (4, 9, 1),
            (5, 2, 2),
            (8, 3, 2),
        ] {
            let per_engine = engine_threads(threads, wave);
            assert_eq!(per_engine, want, "threads={threads} wave={wave}");
            assert!(wave.min(threads) * per_engine <= threads);
        }
    }
}
