//! Criterion benchmark of random-forest training and prediction at the
//! paper's operating point: ~150 jobs × 9 predictors. §VI.C claims the
//! model "does not take much computational time to build or update" —
//! this bench quantifies that for our implementation.
//!
//! Two tables are trained on. The synthetic one's continuous columns hold
//! about 150 distinct values each; the tracked corpus that perfbench's
//! portal-stream trains on holds 9, 12, 4 and 31, and the tree builder's
//! counting sort costs by the number of distinct values a node spans.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use forest::dataset::{Dataset, FeatureKind};
use forest::rf::{ForestConfig, RandomForest};
use forest::Predictor;
use lattice::training::{to_dataset, TrainingJob};
use simkit::SimRng;

/// A synthetic stand-in for the runtime matrix: 9 mixed features, runtime
/// driven by a few of them multiplicatively.
fn corpus(n: usize, seed: u64) -> Dataset {
    let mut rng = SimRng::new(seed);
    let mut ds = Dataset::new(vec![
        ("taxa".into(), FeatureKind::Continuous),
        ("patterns".into(), FeatureKind::Continuous),
        ("datatype".into(), FeatureKind::Categorical { levels: 3 }),
        ("ratehet".into(), FeatureKind::Categorical { levels: 3 }),
        ("ncat".into(), FeatureKind::Continuous),
        ("ratematrix".into(), FeatureKind::Categorical { levels: 4 }),
        ("statefreq".into(), FeatureKind::Categorical { levels: 3 }),
        ("invsites".into(), FeatureKind::Categorical { levels: 2 }),
        ("genthresh".into(), FeatureKind::Continuous),
    ]);
    for _ in 0..n {
        let taxa = rng.range_f64(8.0, 40.0);
        let patterns = rng.range_f64(50.0, 800.0);
        let dt = rng.index(3);
        let states2 = [16.0, 400.0, 3721.0][dt];
        let ncat = *rng.choose(&[1.0, 2.0, 4.0, 8.0]);
        let gen = rng.range_f64(10.0, 100.0);
        let y = taxa * patterns * states2 * ncat * gen / 2e8 * rng.lognormal(0.0, 0.4);
        ds.push(
            vec![
                taxa,
                patterns,
                dt as f64,
                rng.index(3) as f64,
                ncat,
                rng.index(4) as f64,
                rng.index(3) as f64,
                rng.index(2) as f64,
                gen,
            ],
            y,
        );
    }
    ds
}

/// The tracked 150-job corpus (read only) as a forest table.
fn tracked_corpus() -> Dataset {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench_results/corpus_full_150_2011.json"
    );
    let text = std::fs::read_to_string(path).expect("tracked corpus");
    let jobs: Vec<TrainingJob> = serde_json::from_str(&text).expect("corpus parses");
    to_dataset(&jobs)
}

fn bench_forest(c: &mut Criterion) {
    let mut group = c.benchmark_group("forest");
    group.sample_size(10);
    let data = corpus(150, 7);
    let tracked = tracked_corpus();

    let arms = [
        ("train_150x9", &data, 500usize),
        ("train_150x9", &data, 10_000),
        ("train_corpus_150x9", &tracked, 10_000),
    ];
    for (name, table, trees) in arms {
        group.bench_with_input(BenchmarkId::new(name, trees), &trees, |b, &t| {
            b.iter(|| {
                std::hint::black_box(RandomForest::fit(
                    table,
                    &ForestConfig {
                        num_trees: t,
                        ..Default::default()
                    },
                    42,
                ))
            })
        });
    }

    let forest = RandomForest::fit(
        &data,
        &ForestConfig {
            num_trees: 10_000,
            ..Default::default()
        },
        42,
    );
    let row = data.row(0).to_vec();
    group.bench_function("predict_10k_trees", |b| {
        b.iter(|| std::hint::black_box(forest.predict(&row)))
    });

    group.finish();
}

criterion_group!(benches, bench_forest);
criterion_main!(benches);
