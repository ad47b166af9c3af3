//! Criterion benchmark of the grid-level scheduling decision and the
//! discrete-event kernel's throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use gridsim::job::JobSpec;
use gridsim::mds::ResourceState;
use gridsim::resource::{ResourceId, ResourceKind, ResourceSpec};
use gridsim::scheduler::{decide, ResourceView, SchedulerPolicy};

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler");

    // 100 heterogeneous resources, one decision per iteration.
    let views: Vec<ResourceView> = (0..100)
        .map(|i| {
            let spec = if i % 3 == 0 {
                ResourceSpec::condor_pool(&format!("pool{i}"), 50 + i, 0.5 + i as f64 * 0.02, 8.0)
            } else {
                ResourceSpec::cluster(
                    &format!("cluster{i}"),
                    ResourceKind::PbsCluster,
                    16 + i,
                    0.8 + i as f64 * 0.01,
                )
            };
            let state = ResourceState {
                free_slots: i % 17,
                total_slots: spec.slots,
                queued_jobs: i % 5,
            };
            ResourceView::new(ResourceId(i), &spec, state, spec.speed)
        })
        .collect();
    let policy = SchedulerPolicy::default();
    let job = JobSpec::simple(1, 7200.0).with_estimate(8000.0);
    group.bench_function("decide_100", |b| {
        b.iter(|| std::hint::black_box(decide(&job, &views, &policy)))
    });

    group.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
