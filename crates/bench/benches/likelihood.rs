//! Criterion microbenchmarks of the likelihood kernel — the workload whose
//! cost structure the paper's nine predictors capture (and the hot path
//! BEAGLE accelerates on GPUs in §II.A).
//!
//! The first three shapes fit in cache. The three `portal_*` shapes are the
//! largest study of each data type in perfbench's portal-stream workload,
//! where a 64-taxon Γ4 nucleotide CLV set is 24 MB and the kernel is
//! memory-bound. Each portal shape is timed twice: `one_shot` through
//! `evaluate_patterns` (a fresh workspace per call) and `reused` through
//! one `Workspace`, as a search evaluates.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use phylo::likelihood::{evaluate_patterns, Workspace};
use phylo::models::{aminoacid, codon, nucleotide, ReversibleModel, SiteRates};
use phylo::patterns::PatternSet;
use phylo::simulate::Simulator;
use phylo::tree::Tree;
use simkit::SimRng;

/// Time one portal-stream shape: `taxa` × `sites` simulated under `model`,
/// evaluated under Γ4.
fn portal_shape(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    model: &ReversibleModel,
    taxa: usize,
    sites: usize,
    seed: u64,
) {
    let mut rng = SimRng::new(seed);
    let tree = Tree::random_topology(taxa, &mut rng);
    let rates = SiteRates::gamma(4, 0.5);
    let aln = Simulator::new(model, rates.clone()).simulate(&tree, sites, &mut rng);
    let patterns = PatternSet::compress(&aln);
    let one_shot = || evaluate_patterns(&patterns, model, &rates, &tree);
    let cells = one_shot().work;
    group.bench_with_input(
        BenchmarkId::new(format!("{name}/one_shot"), format!("{cells}cells")),
        &(),
        |b, _| b.iter(|| std::hint::black_box(one_shot().log_likelihood)),
    );
    let mut workspace = Workspace::new();
    group.bench_with_input(
        BenchmarkId::new(format!("{name}/reused"), format!("{cells}cells")),
        &(),
        |b, _| b.iter(|| std::hint::black_box(workspace.evaluate(&patterns, model, &rates, &tree))),
    );
}

fn bench_likelihood(c: &mut Criterion) {
    let mut group = c.benchmark_group("likelihood");
    group.sample_size(20);

    // Nucleotide: 16 taxa × 500 sites, Γ4.
    {
        let mut rng = SimRng::new(1);
        let tree = Tree::random_topology(16, &mut rng);
        let model = nucleotide::gtr([1.0, 2.0, 1.0, 1.0, 2.0, 1.0], [0.3, 0.2, 0.2, 0.3]);
        let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&tree, 500, &mut rng);
        let patterns = PatternSet::compress(&aln);
        let rates = SiteRates::gamma(4, 0.5);
        let lnl = || evaluate_patterns(&patterns, &model, &rates, &tree);
        let cells = lnl().work;
        group.bench_with_input(
            BenchmarkId::new("nucleotide_gtr_g4", format!("{cells}cells")),
            &(),
            |b, _| b.iter(|| std::hint::black_box(lnl().log_likelihood)),
        );
    }

    // Amino acid: 12 taxa × 200 sites.
    {
        let mut rng = SimRng::new(2);
        let tree = Tree::random_topology(12, &mut rng);
        let model = aminoacid::empirical();
        let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&tree, 200, &mut rng);
        let patterns = PatternSet::compress(&aln);
        let rates = SiteRates::uniform();
        let lnl = || evaluate_patterns(&patterns, &model, &rates, &tree).log_likelihood;
        group.bench_function("aminoacid_empirical", |b| {
            b.iter(|| std::hint::black_box(lnl()))
        });
    }

    // Codon: 8 taxa × 60 codons — the expensive family.
    {
        let mut rng = SimRng::new(3);
        let tree = Tree::random_topology(8, &mut rng);
        let model = codon::goldman_yang(2.0, 0.3);
        let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&tree, 60, &mut rng);
        let patterns = PatternSet::compress(&aln);
        let rates = SiteRates::uniform();
        let lnl = || evaluate_patterns(&patterns, &model, &rates, &tree).log_likelihood;
        group.bench_function("codon_gy94", |b| b.iter(|| std::hint::black_box(lnl())));
    }

    // portal-stream's largest study per data type.
    let gtr = nucleotide::gtr([1.0, 2.0, 1.0, 1.0, 2.0, 1.0], [0.3, 0.2, 0.2, 0.3]);
    let aa = aminoacid::empirical();
    let gy = codon::goldman_yang(2.0, 0.3);
    portal_shape(
        &mut group,
        "portal_nucleotide_g4_64x3000",
        &gtr,
        64,
        3000,
        4,
    );
    portal_shape(&mut group, "portal_aminoacid_g4_12x300", &aa, 12, 300, 5);
    portal_shape(&mut group, "portal_codon_g4_10x140", &gy, 10, 140, 6);

    group.finish();
}

criterion_group!(benches, bench_likelihood);
criterion_main!(benches);
