//! Plan compilation: the reusable, execution-free front half of the
//! simulator.
//!
//! [`CompiledPlan`] is the `ParsedSpec → LoweredPlan` artifact of the
//! staged evaluation pipeline: lowering, fusion-block inference, on-chip
//! intermediate analysis, per-Einsum intersection-policy resolution, and
//! instrumentation-channel templates — everything about a specification
//! that does not depend on tensor data. A mapper probing hundreds of
//! loop orders, a batch of evaluation requests, or a graph driver
//! re-running its cascade every superstep compiles once (or fetches the
//! compiled artifact from an
//! [`EvalContext`](crate::pipeline::EvalContext) by
//! [`spec_hash`](teaal_core::canon::spec_hash)) and shares it behind an
//! [`Arc`](std::sync::Arc) across every
//! [`Simulator`](crate::Simulator) and thread.

use std::collections::{BTreeMap, BTreeSet};

use teaal_core::canon;
use teaal_core::ir::{self, EinsumBlock, EinsumPlan};
use teaal_core::spec::{BindStyle, BufferKind, ComponentClass, TeaalSpec};
use teaal_fibertree::IntersectPolicy;

use crate::counters::{ChannelCfg, Instruments};
use crate::error::SimError;

/// A specification compiled down to everything execution needs, with no
/// tensor data involved: plans, fusion blocks, on-chip intermediates,
/// and per-plan policy and instrumentation templates.
///
/// Immutable after construction and freely shareable across threads.
#[derive(Debug)]
pub struct CompiledPlan {
    spec: TeaalSpec,
    spec_hash: u64,
    plans: Vec<EinsumPlan>,
    blocks: Vec<EinsumBlock>,
    /// Intermediates whose producer and all consumers share a fused
    /// block: they live on-chip and never generate DRAM traffic
    /// (Gamma's `T`).
    on_chip: BTreeSet<String>,
    /// Resolved intersection policy per plan (parallel to `plans`).
    policies: Vec<IntersectPolicy>,
    /// Instrumentation-channel template per plan (parallel to `plans`);
    /// cloned fresh for every execution.
    templates: Vec<Instruments>,
}

impl CompiledPlan {
    /// Lowers and analyzes a specification.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] when lowering fails.
    pub fn compile(spec: TeaalSpec) -> Result<Self, SimError> {
        let spec_hash = canon::spec_hash(&spec);
        let plans = ir::lower(&spec)?;
        let blocks = ir::infer_blocks(&spec, &plans);

        // Fusion keeps intermediates on-chip: when an Einsum's output and
        // every consumer of that output share one block, the tensor never
        // touches DRAM (paper §4.3 — Einsums "communicate by sharing
        // sub-tensors").
        let mut block_of: BTreeMap<&str, usize> = BTreeMap::new();
        for (bi, b) in blocks.iter().enumerate() {
            for &m in &b.members {
                block_of.insert(plans[m].equation.name(), bi);
            }
        }
        let edges = spec.cascade.dag_edges();
        let mut on_chip = BTreeSet::new();
        for t in spec.cascade.intermediates() {
            let Some(&pb) = block_of.get(t.as_str()) else {
                continue;
            };
            let consumers: Vec<String> = edges
                .iter()
                .filter(|(p, _)| *p == t)
                .map(|(_, c)| c.clone())
                .collect();
            if !consumers.is_empty()
                && consumers
                    .iter()
                    .all(|c| block_of.get(c.as_str()) == Some(&pb))
            {
                on_chip.insert(t);
            }
        }

        let policies = plans
            .iter()
            .map(|p| resolve_intersect_policy(&spec, p))
            .collect();
        let templates = plans
            .iter()
            .map(|p| build_instruments(&spec, &on_chip, p))
            .collect();

        Ok(CompiledPlan {
            spec,
            spec_hash,
            plans,
            blocks,
            on_chip,
            policies,
            templates,
        })
    }

    /// The specification this plan was compiled from.
    pub fn spec(&self) -> &TeaalSpec {
        &self.spec
    }

    /// The canonical content hash of the specification
    /// ([`canon::spec_hash`]) — the key this artifact is cached under.
    pub fn spec_hash(&self) -> u64 {
        self.spec_hash
    }

    /// The lowered plans.
    pub fn plans(&self) -> &[EinsumPlan] {
        &self.plans
    }

    /// The inferred fusion blocks.
    pub fn blocks(&self) -> &[EinsumBlock] {
        &self.blocks
    }

    /// Intermediates kept on-chip by fusion (no DRAM traffic).
    pub fn on_chip(&self) -> &BTreeSet<String> {
        &self.on_chip
    }

    /// The resolved intersection policy for `plan` (matched by Einsum
    /// name; falls back to re-resolving for foreign plans).
    pub fn policy_for(&self, plan: &EinsumPlan) -> IntersectPolicy {
        match self.index_of(plan) {
            Some(i) => self.policies[i],
            None => resolve_intersect_policy(&self.spec, plan),
        }
    }

    /// A fresh instrumentation set for one execution of `plan` (matched
    /// by Einsum name; falls back to rebuilding for foreign plans).
    pub fn instruments_for(&self, plan: &EinsumPlan) -> Instruments {
        match self.index_of(plan) {
            Some(i) => self.templates[i].clone(),
            None => build_instruments(&self.spec, &self.on_chip, plan),
        }
    }

    /// Rough resident size of the compiled artifact, for the telemetry
    /// byte counters.
    pub fn approx_bytes(&self) -> u64 {
        format!("{:?}", self.plans).len() as u64
    }

    fn index_of(&self, plan: &EinsumPlan) -> Option<usize> {
        self.plans
            .iter()
            .position(|p| p.equation.name() == plan.equation.name())
    }
}

/// Whether `tensor` is *pinned* on chip under `binding`: bound
/// exclusively to explicitly-managed (buffet-class) storage with no
/// eviction policy (e.g. Graphicionado's temp property array in eDRAM),
/// so it never generates DRAM traffic. Buffets with `evict-on` stream
/// from DRAM, and caches miss to DRAM, so both stay DRAM-backed.
pub(crate) fn is_pinned(
    spec: &TeaalSpec,
    binding: &teaal_core::spec::EinsumBinding,
    tensor: &str,
) -> bool {
    let storage = binding.storage_for(tensor);
    !storage.is_empty()
        && storage
            .iter()
            .all(|s| s.evict_on.is_none() && is_pinnable_buffet(spec, binding, &s.component))
}

fn is_pinnable_buffet(
    spec: &TeaalSpec,
    binding: &teaal_core::spec::EinsumBinding,
    component: &str,
) -> bool {
    spec.architecture
        .config(binding.arch_config.as_deref())
        .and_then(|a| a.find(component))
        .map(|(c, _)| {
            matches!(
                c.class,
                ComponentClass::Buffer {
                    kind: BufferKind::Buffet,
                    ..
                }
            )
        })
        .unwrap_or(false)
}

/// Resolves the intersection policy for an Einsum: its bound
/// intersection unit if the binding names one, otherwise the first
/// intersection unit in the architecture configuration.
fn resolve_intersect_policy(spec: &TeaalSpec, plan: &EinsumPlan) -> IntersectPolicy {
    let binding = spec.binding.for_einsum(plan.equation.name());
    if let Some(cfg) = spec.architecture.config(binding.arch_config.as_deref()) {
        for ib in &binding.intersects {
            if let Some((c, _)) = cfg.find(&ib.component) {
                if let ComponentClass::Intersect { policy } = &c.class {
                    return *policy;
                }
            }
        }
        for (c, _) in cfg.all_components() {
            if let ComponentClass::Intersect { policy } = &c.class {
                return *policy;
            }
        }
    }
    IntersectPolicy::TwoFinger
}

/// Builds the instrumentation channels for one Einsum from the binding +
/// format specifications.
fn build_instruments(
    spec: &TeaalSpec,
    on_chip: &BTreeSet<String>,
    plan: &EinsumPlan,
) -> Instruments {
    let name = plan.equation.name();
    let binding = spec.binding.for_einsum(name);
    let mut instruments = Instruments::default();

    for tp in &plan.tensor_plans {
        let declared = spec.rank_order_of(&tp.tensor).unwrap_or_default();
        let storage = binding.storage_for(&tp.tensor);
        let fmt_config = storage.iter().find_map(|s| s.config.clone());
        let fmt = spec
            .format
            .config_or_default(&tp.tensor, fmt_config.as_deref(), &declared);

        // Per-working-rank element bits: bottom ranks cost their
        // concrete element; upper partition ranks are bookkeeping.
        let mut rank_bits = Vec::new();
        for w in &tp.working_order {
            let bits = match plan.rank_space.def(w) {
                Some(teaal_core::ir::RankDef::Split { level, .. }) if *level > 0 => 0,
                _ => {
                    let roots = plan.rank_space.roots_of(w);
                    let concrete = roots.last().cloned().unwrap_or_else(|| w.clone());
                    fmt.element_bits(&concrete)
                }
            };
            rank_bits.push((w.clone(), bits));
        }

        let mut cfg = ChannelCfg::fully_buffered(rank_bits);
        if on_chip.contains(&tp.tensor) {
            cfg.dram_backed = false;
        }
        if is_pinned(spec, &binding, &tp.tensor) {
            cfg.dram_backed = false;
        }
        for s in &storage {
            if let Some(arch) = spec.architecture.config(binding.arch_config.as_deref()) {
                if let Some((comp, _)) = arch.find(&s.component) {
                    match &comp.class {
                        ComponentClass::Buffer {
                            kind, width, depth, ..
                        } => match kind {
                            BufferKind::Cache => {
                                let line_bits = (*width).max(64);
                                let lines = ((width * depth) / line_bits).max(1) as usize;
                                cfg.cache_lines = Some(lines);
                                cfg.line_bits = line_bits;
                            }
                            BufferKind::Buffet => {
                                cfg.evict_on = s.evict_on.clone();
                            }
                        },
                        ComponentClass::Dram { .. } => {
                            cfg.dram_backed = true;
                        }
                        _ => {}
                    }
                }
            }
            if s.style == BindStyle::Eager {
                // Map the bound storage rank to the working rank that
                // covers it.
                let er = tp
                    .working_order
                    .iter()
                    .find(|w| *w == &s.rank || plan.rank_space.roots_of(w).contains(&s.rank))
                    .cloned();
                cfg.eager_rank = er.or(Some(s.rank.clone()));
            }
        }
        instruments.add_tensor(&tp.tensor, cfg);
    }

    // Output channel.
    let out_declared = plan.output.target_order.clone();
    let out_fmt = spec.format.config_or_default(name, None, &out_declared);
    let leaf_rank = out_declared.last().cloned().unwrap_or_default();
    let elem_bits = out_fmt.element_bits(&leaf_rank);
    let evict = binding
        .storage_for(name)
        .iter()
        .find_map(|s| s.evict_on.clone());
    instruments.output = crate::counters::OutputChannel::new(elem_bits, evict);
    instruments
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spmspm() -> TeaalSpec {
        TeaalSpec::parse(concat!(
            "einsum:\n",
            "  declaration:\n",
            "    A: [K, M]\n",
            "    B: [K, N]\n",
            "    Z: [M, N]\n",
            "  expressions:\n",
            "    - Z[m, n] = A[k, m] * B[k, n]\n",
        ))
        .unwrap()
    }

    #[test]
    fn compiles_once_and_exposes_the_artifacts() {
        let compiled = CompiledPlan::compile(spmspm()).unwrap();
        assert_eq!(compiled.plans().len(), 1);
        assert_eq!(compiled.spec_hash(), canon::spec_hash(compiled.spec()));
        assert!(compiled.approx_bytes() > 0);
        let plan = &compiled.plans()[0];
        // The template is cloned per execution, never shared state.
        let a = compiled.instruments_for(plan);
        let b = compiled.instruments_for(plan);
        assert_eq!(a.tensors.len(), b.tensors.len());
        assert!(a.tensors.contains_key("A"));
    }

    #[test]
    fn instrument_templates_match_a_fresh_build() {
        let spec = spmspm();
        let compiled = CompiledPlan::compile(spec.clone()).unwrap();
        for plan in compiled.plans() {
            let templ = compiled.instruments_for(plan);
            let fresh = build_instruments(&spec, compiled.on_chip(), plan);
            assert_eq!(
                templ.tensors.keys().collect::<Vec<_>>(),
                fresh.tensors.keys().collect::<Vec<_>>()
            );
            assert_eq!(
                compiled.policy_for(plan),
                resolve_intersect_policy(&spec, plan)
            );
        }
    }
}
