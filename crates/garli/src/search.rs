//! The genetic-algorithm search loop.
//!
//! Each generation, offspring are cloned from rank-selected parents, hit
//! with one mutation, and scored; the best `population_size` of parents ∪
//! offspring survive (elitist truncation selection). The search ends when no
//! *topological* improvement has been accepted for
//! `genthreshfortopoterm` generations (GARLI's rule), or at the hard
//! generation cap.

use crate::checkpoint::SearchCheckpoint;
use crate::config::{GarliConfig, StartingTree};
use crate::individual::{sort_best_first, Individual};
use crate::model::{build_model, build_rates, AnyModel, ModelParams};
use crate::mutation::{mutate, MutationKind, MutationWeights};
use crate::progress::Progress;
use crate::validate::{validate, ValidationError, ValidationReport};
use crate::work::WorkAccount;
use phylo::alignment::Alignment;
use phylo::likelihood::{Evaluation, Workspace};
use phylo::models::{MemoBudget, SiteRates};
use phylo::patterns::PatternSet;
use phylo::tree::Tree;
use serde::{Deserialize, Serialize};
use simkit::SimRng;

/// Minimum log-likelihood gain for a new best to count as an improvement
/// (GARLI `significanttopochange`).
const SIGNIFICANT_IMPROVEMENT: f64 = 0.01;

/// Why the search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Termination {
    /// No topological improvement for `genthreshfortopoterm` generations.
    TopologyConvergence,
    /// Hit the hard generation cap.
    GenerationCap,
}

/// The outcome of one search replicate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchResult {
    /// Highest-likelihood tree found.
    pub best_tree: Tree,
    /// Its log-likelihood.
    pub best_log_likelihood: f64,
    /// Final model parameter values.
    pub final_params: ModelParams,
    /// Generations executed.
    pub generations: u64,
    /// Total computational work.
    pub work: WorkAccount,
    /// Why the search stopped.
    pub termination: Termination,
    /// Number of accepted best-improving mutations.
    pub accepted_improvements: u64,
    /// Mutations tried, by operator (NNI, SPR, branch, model).
    pub mutation_counts: [u64; 4],
}

impl SearchResult {
    /// Runtime on the reference computer, in seconds.
    pub fn reference_seconds(&self) -> f64 {
        self.work.reference_seconds()
    }
}

fn kind_index(kind: MutationKind) -> usize {
    match kind {
        MutationKind::Nni => 0,
        MutationKind::Spr => 1,
        MutationKind::BranchLength => 2,
        MutationKind::ModelParam => 3,
    }
}

/// A validated, ready-to-run search.
pub struct Search {
    config: GarliConfig,
    alignment: Alignment,
    patterns: PatternSet,
    report: ValidationReport,
    weights: MutationWeights,
}

/// The models of a search's live parameter sets.
///
/// A model is an eigendecomposition plus a `P(t)` memo, so rebuilding one is
/// the costliest thing an evaluation can trigger. Offspring of differently
/// parameterised parents switch parameter sets from one evaluation to the
/// next, so the store keeps one model, with its rate mixture, per parameter
/// set that some individual still carries, and builds one only for a
/// parameter set it does not hold. After each truncation it drops every
/// entry whose parameters no survivor has, so it holds at most the
/// population plus one generation's offspring. Their memos share one
/// [`MemoBudget`], so together they hold no more matrices than one model's
/// memo may alone.
struct ModelStore {
    entries: Vec<StoreEntry>,
    memo: MemoBudget,
}

struct StoreEntry {
    params: ModelParams,
    model: AnyModel,
    rates: SiteRates,
}

impl ModelStore {
    fn new() -> ModelStore {
        ModelStore {
            entries: Vec::new(),
            memo: MemoBudget::default(),
        }
    }

    /// The entry for `params`, built on first use.
    fn get(&mut self, search: &Search, params: &ModelParams) -> &StoreEntry {
        let i = match self.entries.iter().position(|e| e.params == *params) {
            Some(i) => i,
            None => {
                let mut model = build_model(&search.config, params, &search.alignment);
                model.share_memo(&self.memo);
                self.entries.push(StoreEntry {
                    params: params.clone(),
                    model,
                    rates: build_rates(&search.config, params),
                });
                self.entries.len() - 1
            }
        };
        &self.entries[i]
    }

    /// Drop every entry whose parameters no individual in `population` has.
    fn retain_live(&mut self, population: &[Individual]) {
        self.entries
            .retain(|e| population.iter().any(|ind| ind.params == e.params));
    }
}

/// What one run of a search evaluates with: its model store and one CLV
/// workspace, both dropped when the run returns.
struct Scorer {
    models: ModelStore,
    workspace: Workspace,
}

impl Scorer {
    fn new() -> Scorer {
        Scorer {
            models: ModelStore::new(),
            workspace: Workspace::new(),
        }
    }

    fn evaluate(&mut self, search: &Search, params: &ModelParams, tree: &Tree) -> Evaluation {
        let entry = self.models.get(search, params);
        self.workspace
            .evaluate(&search.patterns, &entry.model, &entry.rates, tree)
    }
}

impl Search {
    /// Validate the configuration against the data and prepare a search.
    pub fn new(config: GarliConfig, alignment: &Alignment) -> Result<Search, ValidationError> {
        let report = validate(&config, alignment)?;
        let patterns = PatternSet::compress(alignment);
        Ok(Search {
            config,
            alignment: alignment.clone(),
            patterns,
            report,
            weights: MutationWeights::default(),
        })
    }

    /// The validation report produced at construction.
    pub fn report(&self) -> &ValidationReport {
        &self.report
    }

    /// The configuration.
    pub fn config(&self) -> &GarliConfig {
        &self.config
    }

    /// Override the mutation operator mix (ablation experiments).
    pub fn set_mutation_weights(&mut self, weights: MutationWeights) {
        self.weights = weights;
    }

    /// Run to termination.
    pub fn run(&self, rng: &mut SimRng) -> SearchResult {
        self.run_with(rng, |_| {}, |_| {})
    }

    /// Run with progress and checkpoint callbacks. Checkpoints are cut every
    /// `config.checkpoint_interval` generations.
    pub fn run_with(
        &self,
        rng: &mut SimRng,
        on_progress: impl FnMut(&Progress),
        on_checkpoint: impl FnMut(&SearchCheckpoint),
    ) -> SearchResult {
        let mut scorer = Scorer::new();
        let state = self.initialize(rng, &mut scorer);
        self.run_from(state, rng, &mut scorer, on_progress, on_checkpoint)
    }

    /// Resume from a checkpoint (e.g. after a volunteer host vanished).
    pub fn resume(
        &self,
        checkpoint: SearchCheckpoint,
        rng: &mut SimRng,
        on_progress: impl FnMut(&Progress),
        on_checkpoint: impl FnMut(&SearchCheckpoint),
    ) -> SearchResult {
        let mut scorer = Scorer::new();
        self.run_from(checkpoint, rng, &mut scorer, on_progress, on_checkpoint)
    }

    /// Build and score the initial population.
    fn initialize(&self, rng: &mut SimRng, scorer: &mut Scorer) -> SearchCheckpoint {
        let params = ModelParams::from_config(&self.config);
        let mut work = WorkAccount::new();

        let base_tree = self.starting_tree(rng, &params, scorer, &mut work);
        let mut population = Vec::with_capacity(self.config.population_size);
        for i in 0..self.config.population_size {
            let mut ind = Individual::new(base_tree.clone(), params.clone());
            // Diversify all but the first individual.
            for _ in 0..i.min(3) {
                mutate(&mut ind, &self.config, &self.weights, rng);
            }
            self.score(&mut ind, scorer, &mut work);
            population.push(ind);
        }
        sort_best_first(&mut population);
        SearchCheckpoint {
            generation: 0,
            population,
            stagnant_generations: 0,
            work_cells: work.cells(),
            accepted_improvements: 0,
            mutation_counts: [0; 4],
        }
    }

    /// Build the starting topology. `attachmentspertaxon` governs how many
    /// candidate starting trees are scored when starting from random —
    /// GARLI's stepwise-addition effort knob, a pure start-up cost.
    fn starting_tree(
        &self,
        rng: &mut SimRng,
        params: &ModelParams,
        scorer: &mut Scorer,
        work: &mut WorkAccount,
    ) -> Tree {
        match &self.config.starting_tree {
            StartingTree::Newick(nwk) => {
                let names = self.alignment.taxon_names();
                phylo::newick::parse_newick(nwk, &names).expect("validated at construction")
            }
            StartingTree::NeighborJoining => phylo::distance::nj_tree(&self.alignment),
            StartingTree::Random => {
                // Score a pool of random candidates proportional to the
                // attachments knob and keep the best.
                let candidates = (self.config.attachments_per_taxon / 10).clamp(1, 20);
                let mut best: Option<(Tree, f64)> = None;
                for _ in 0..candidates {
                    let t = Tree::random_topology(self.alignment.num_taxa(), rng);
                    let ev = scorer.evaluate(self, params, &t);
                    work.add(ev.work);
                    if best.as_ref().is_none_or(|(_, l)| ev.log_likelihood > *l) {
                        best = Some((t, ev.log_likelihood));
                    }
                }
                best.expect("at least one candidate").0
            }
        }
    }

    /// Score an individual under the model of its parameter set.
    fn score(&self, ind: &mut Individual, scorer: &mut Scorer, work: &mut WorkAccount) {
        let ev = scorer.evaluate(self, &ind.params, &ind.tree);
        ind.log_likelihood = ev.log_likelihood;
        work.add(ev.work);
    }

    /// The GA loop from a given state.
    fn run_from(
        &self,
        mut state: SearchCheckpoint,
        rng: &mut SimRng,
        scorer: &mut Scorer,
        mut on_progress: impl FnMut(&Progress),
        mut on_checkpoint: impl FnMut(&SearchCheckpoint),
    ) -> SearchResult {
        let mut work = WorkAccount::from_cells(state.work_cells);
        let termination;

        loop {
            if state.stagnant_generations >= self.config.genthresh_for_topo_term {
                termination = Termination::TopologyConvergence;
                break;
            }
            if state.generation >= self.config.max_generations {
                termination = Termination::GenerationCap;
                break;
            }
            self.advance(&mut state, rng, scorer, &mut work);
            on_progress(&Progress {
                generation: state.generation,
                max_generations: self.config.max_generations,
                stagnant_generations: state.stagnant_generations,
                genthresh: self.config.genthresh_for_topo_term,
                best_log_likelihood: state.population[0].log_likelihood,
                work_cells: work.cells(),
            });
            if self.config.checkpoint_interval > 0
                && state
                    .generation
                    .is_multiple_of(self.config.checkpoint_interval)
            {
                on_checkpoint(&state);
            }
        }

        let best = state.population[0].clone();
        SearchResult {
            best_tree: best.tree,
            best_log_likelihood: best.log_likelihood,
            final_params: best.params,
            generations: state.generation,
            work,
            termination,
            accepted_improvements: state.accepted_improvements,
            mutation_counts: state.mutation_counts,
        }
    }

    /// One generation: breed and score offspring, keep the best
    /// `population_size` of parents and offspring, and drop the models no
    /// survivor uses.
    fn advance(
        &self,
        state: &mut SearchCheckpoint,
        rng: &mut SimRng,
        scorer: &mut Scorer,
        work: &mut WorkAccount,
    ) {
        let popsize = self.config.population_size;
        state.generation += 1;

        let prev_best = state.population[0].log_likelihood;
        // Rank-weighted parent selection: rank r gets weight popsize - r.
        let rank_weights: Vec<f64> = (0..state.population.len())
            .map(|r| (popsize - r) as f64)
            .collect();

        let mut offspring: Vec<(Individual, MutationKind)> = Vec::with_capacity(popsize - 1);
        for _ in 0..popsize - 1 {
            let parent = rng.weighted_index(&rank_weights);
            let mut child = state.population[parent].clone();
            let kind = mutate(&mut child, &self.config, &self.weights, rng);
            state.mutation_counts[kind_index(kind)] += 1;
            self.score(&mut child, scorer, work);
            offspring.push((child, kind));
        }

        // Did a topological offspring beat the previous best?
        let mut topo_improved = false;
        let mut any_improved = false;
        for (child, kind) in &offspring {
            if child.log_likelihood > prev_best + SIGNIFICANT_IMPROVEMENT {
                any_improved = true;
                if kind.is_topological() {
                    topo_improved = true;
                }
            }
        }
        if any_improved {
            state.accepted_improvements += 1;
        }
        if topo_improved {
            state.stagnant_generations = 0;
        } else {
            state.stagnant_generations += 1;
        }

        // Elitist truncation: best `popsize` of parents ∪ offspring.
        state
            .population
            .extend(offspring.into_iter().map(|(c, _)| c));
        sort_best_first(&mut state.population);
        state.population.truncate(popsize);
        scorer.models.retain_live(&state.population);

        state.work_cells = work.cells();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::models::nucleotide::NucModel;
    use phylo::simulate::Simulator;

    fn simulated(n: usize, sites: usize, seed: u64) -> (Alignment, Tree) {
        let mut rng = SimRng::new(seed);
        let truth = Tree::random_topology(n, &mut rng);
        let model = NucModel::jc69();
        let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&truth, sites, &mut rng);
        (aln, truth)
    }

    #[test]
    fn search_recovers_strong_signal_topology() {
        let (aln, truth) = simulated(7, 2000, 81);
        let config = GarliConfig::quick_nucleotide();
        let mut rng = SimRng::new(82);
        let result = Search::new(config, &aln).unwrap().run(&mut rng);
        assert_eq!(
            result.best_tree.robinson_foulds(&truth),
            0,
            "2000 sites on 7 taxa is unambiguous; search must find the true tree"
        );
        assert!(result.work.cells() > 0);
    }

    #[test]
    fn search_improves_over_random_start() {
        let (aln, _) = simulated(8, 400, 83);
        let mut config = GarliConfig::quick_nucleotide();
        config.starting_tree = StartingTree::Random;
        let mut rng = SimRng::new(84);
        let search = Search::new(config, &aln).unwrap();
        // Score a random tree for comparison.
        let mut r2 = SimRng::new(85);
        let random_tree = Tree::random_topology(8, &mut r2);
        let model = NucModel::jc69();
        let engine = phylo::likelihood::LikelihoodEngine::new(&aln, &model, SiteRates::uniform());
        let random_lnl = engine.log_likelihood(&random_tree);
        let result = search.run(&mut rng);
        assert!(
            result.best_log_likelihood >= random_lnl,
            "{} should beat random {}",
            result.best_log_likelihood,
            random_lnl
        );
    }

    #[test]
    fn terminates_by_convergence_with_generous_cap() {
        let (aln, _) = simulated(6, 300, 86);
        let mut config = GarliConfig::quick_nucleotide();
        config.genthresh_for_topo_term = 15;
        config.max_generations = 100_000;
        let mut rng = SimRng::new(87);
        let result = Search::new(config, &aln).unwrap().run(&mut rng);
        assert_eq!(result.termination, Termination::TopologyConvergence);
        assert!(result.generations >= 15);
    }

    #[test]
    fn terminates_by_cap_with_tight_cap() {
        let (aln, _) = simulated(6, 300, 88);
        let mut config = GarliConfig::quick_nucleotide();
        config.genthresh_for_topo_term = 10;
        config.max_generations = 10;
        let mut rng = SimRng::new(89);
        let result = Search::new(config, &aln).unwrap().run(&mut rng);
        // Either it converges exactly at 10 or the cap fires; both stop at 10.
        assert!(result.generations <= 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let (aln, _) = simulated(6, 200, 90);
        let config = GarliConfig::quick_nucleotide();
        let run = || {
            let mut rng = SimRng::new(91);
            Search::new(config.clone(), &aln).unwrap().run(&mut rng)
        };
        let a = run();
        let b = run();
        assert_eq!(a.best_log_likelihood, b.best_log_likelihood);
        assert_eq!(a.generations, b.generations);
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn genthresh_monotonically_increases_work() {
        // The paper's ninth predictor: a larger topology-termination
        // threshold means longer runs, all else equal.
        let (aln, _) = simulated(8, 300, 92);
        let run = |thresh: u64| {
            let mut config = GarliConfig::quick_nucleotide();
            config.genthresh_for_topo_term = thresh;
            config.max_generations = 100_000;
            let mut rng = SimRng::new(93);
            Search::new(config, &aln)
                .unwrap()
                .run(&mut rng)
                .work
                .cells()
        };
        let short = run(5);
        let long = run(80);
        assert!(long > short, "genthresh 80 ({long}) vs 5 ({short})");
    }

    #[test]
    fn progress_reaches_completion() {
        let (aln, _) = simulated(6, 200, 94);
        let mut config = GarliConfig::quick_nucleotide();
        config.genthresh_for_topo_term = 10;
        config.max_generations = 50;
        let mut rng = SimRng::new(95);
        let mut fractions = Vec::new();
        let _ = Search::new(config, &aln).unwrap().run_with(
            &mut rng,
            |p| fractions.push(p.fraction_done()),
            |_| {},
        );
        assert!(!fractions.is_empty());
        assert!(fractions.last().unwrap() >= &0.99);
    }

    #[test]
    fn checkpoint_resume_completes() {
        let (aln, _) = simulated(7, 300, 96);
        let mut config = GarliConfig::quick_nucleotide();
        config.checkpoint_interval = 5;
        config.genthresh_for_topo_term = 25;
        let search = Search::new(config, &aln).unwrap();

        // Run once fully for the baseline.
        let mut rng = SimRng::new(97);
        let full = search.run(&mut rng);

        // Capture an early checkpoint, then resume from it.
        let mut first_cp: Option<SearchCheckpoint> = None;
        let mut rng2 = SimRng::new(97);
        let _ = search.run_with(
            &mut rng2,
            |_| {},
            |cp| {
                if first_cp.is_none() {
                    first_cp = Some(cp.clone());
                }
            },
        );
        let cp = first_cp.expect("checkpoint emitted");
        assert_eq!(cp.generation, 5);
        let mut rng3 = SimRng::new(98);
        let resumed = search.resume(cp, &mut rng3, |_| {}, |_| {});
        assert!(resumed.best_log_likelihood.is_finite());
        // Resumed search must do at least as well as the checkpointed state.
        assert!(resumed.best_log_likelihood >= full.best_log_likelihood - 50.0);
        assert!(resumed.generations > 5);
    }

    #[test]
    fn newick_start_honored() {
        let (aln, truth) = simulated(6, 500, 99);
        let names = aln.taxon_names();
        let nwk = phylo::newick::to_newick(&truth, &names);
        let mut config = GarliConfig::quick_nucleotide();
        config.starting_tree = StartingTree::Newick(nwk);
        config.genthresh_for_topo_term = 5;
        let mut rng = SimRng::new(100);
        let result = Search::new(config, &aln).unwrap().run(&mut rng);
        // Starting at the truth, the search should stay at (or improve on) it.
        assert_eq!(result.best_tree.robinson_foulds(&truth), 0);
    }

    /// After every truncation the store holds one model per parameter set
    /// the population carries, and nothing else.
    #[test]
    fn model_store_keeps_only_live_parameter_sets() {
        use crate::config::{RateHetKind, StateFrequencies};
        use phylo::models::nucleotide::RateMatrix;
        let (aln, _) = simulated(7, 200, 102);
        let config = GarliConfig {
            rate_matrix: RateMatrix::Gtr,
            state_frequencies: StateFrequencies::Estimate,
            rate_het: RateHetKind::GammaInv,
            invariant_sites: true,
            ..GarliConfig::default()
        };
        let mut search = Search::new(config, &aln).unwrap();
        search.set_mutation_weights(MutationWeights {
            nni: 0.3,
            spr: 0.05,
            branch: 0.25,
            model: 0.4,
        });
        let mut rng = SimRng::new(103);
        let mut scorer = Scorer::new();
        let mut state = search.initialize(&mut rng, &mut scorer);
        let mut work = WorkAccount::new();
        let mut most_live = 0;
        for _ in 0..150 {
            search.advance(&mut state, &mut rng, &mut scorer, &mut work);
            let held: Vec<&ModelParams> = scorer.models.entries.iter().map(|e| &e.params).collect();
            for (i, params) in held.iter().enumerate() {
                assert!(
                    state.population.iter().any(|ind| &ind.params == *params),
                    "the store kept a model whose parameters left the population"
                );
                assert!(!held[i + 1..].contains(params), "one model per set");
            }
            for ind in &state.population {
                assert!(held.contains(&&ind.params));
            }
            most_live = most_live.max(held.len());
        }
        assert!(most_live > 1, "several parameter sets were live at once");
    }

    #[test]
    fn validation_failure_propagates() {
        let (aln, _) = simulated(6, 100, 101);
        let mut config = GarliConfig::quick_nucleotide();
        config.population_size = 1;
        assert!(Search::new(config, &aln).is_err());
    }
}
