//! Criterion benchmark of a complete GARLI search replicate — the unit of
//! work the grid schedules thousands of.

use criterion::{criterion_group, criterion_main, Criterion};
use garli::config::GarliConfig;
use garli::search::Search;
use phylo::models::nucleotide;
use phylo::models::SiteRates;
use phylo::simulate::Simulator;
use phylo::tree::Tree;
use simkit::SimRng;

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("garli_search");
    group.sample_size(10);

    let mut rng = SimRng::new(11);
    let truth = Tree::random_topology(10, &mut rng);
    let model = nucleotide::jc69();
    let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&truth, 300, &mut rng);

    let mut config = GarliConfig::quick_nucleotide();
    config.genthresh_for_topo_term = 10;
    config.max_generations = 60;
    let search = Search::new(config, &aln).unwrap();

    group.bench_function("replicate_10taxa_300sites", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut rng = SimRng::new(1000 + i);
            std::hint::black_box(search.run(&mut rng).best_log_likelihood)
        })
    });

    group.bench_function("validation_mode", |b| {
        let config = GarliConfig::quick_nucleotide();
        b.iter(|| std::hint::black_box(garli::validate::validate(&config, &aln).unwrap()))
    });

    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
