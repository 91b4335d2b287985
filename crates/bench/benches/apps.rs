//! Criterion benches for the six paper applications (Table 2's parallel
//! column, one fixed input per family for statistical stability).

use criterion::{criterion_group, criterion_main, Criterion};
use ligra_apps as apps;
use ligra_graph::generators::grid3d;
use ligra_graph::generators::random_weights;
use ligra_graph::generators::rmat::{rmat, RmatOptions};
use std::hint::black_box;

fn bench_apps(c: &mut Criterion) {
    let rm = rmat(&RmatOptions::paper(14));
    let grid = grid3d(20);
    let wrm = random_weights(&rm, 100, 7);

    let mut group = c.benchmark_group("apps");
    group.sample_size(10);

    group.bench_function("bfs/rmat14", |b| b.iter(|| black_box(apps::bfs(&rm, 0))));
    group.bench_function("bfs/grid20", |b| b.iter(|| black_box(apps::bfs(&grid, 0))));
    group.bench_function("bc/rmat14", |b| b.iter(|| black_box(apps::bc(&rm, 0))));
    group.bench_function("radii/rmat14", |b| b.iter(|| black_box(apps::radii(&rm, 1))));
    group.bench_function("cc/rmat14", |b| b.iter(|| black_box(apps::cc(&rm))));
    group.bench_function("cc/grid20", |b| b.iter(|| black_box(apps::cc(&grid))));
    group.bench_function("pagerank1/rmat14", |b| {
        b.iter(|| black_box(apps::pagerank(&rm, 0.85, 0.0, 1)))
    });
    group.bench_function("pagerank_delta/rmat14", |b| {
        b.iter(|| black_box(apps::pagerank_delta(&rm, 0.85, 1e-2, 100)))
    });
    group.bench_function("bellman_ford/rmat14", |b| {
        b.iter(|| black_box(apps::bellman_ford(&wrm, 0)))
    });
    group.finish();
}

fn bench_extension_apps(c: &mut Criterion) {
    // The extra applications of the official Ligra release.
    let rm = rmat(&RmatOptions::paper(13));
    let mut group = c.benchmark_group("apps_ext");
    group.sample_size(10);
    group.bench_function("kcore/rmat13", |b| b.iter(|| black_box(apps::kcore(&rm))));
    group.bench_function("mis/rmat13", |b| b.iter(|| black_box(apps::mis(&rm, 7))));
    group.bench_function("triangle/rmat13", |b| b.iter(|| black_box(apps::triangle_count(&rm))));
    group.bench_function("cc_ldd/rmat13", |b| b.iter(|| black_box(apps::cc_ldd(&rm, 7))));
    group.finish();
}

fn bench_compressed_apps(c: &mut Criterion) {
    // Ligra+ (DCC'15): same application code, compressed representation.
    use ligra_compress::CompressedGraph;
    let rm = rmat(&RmatOptions::paper(14));
    let cg: CompressedGraph = CompressedGraph::from_graph(&rm);
    let mut group = c.benchmark_group("apps_compressed");
    group.sample_size(10);
    group.bench_function("bfs/rmat14", |b| b.iter(|| black_box(apps::bfs(&cg, 0))));
    group.bench_function("cc/rmat14", |b| b.iter(|| black_box(apps::cc(&cg))));
    group.bench_function("pagerank1/rmat14", |b| {
        b.iter(|| black_box(apps::pagerank(&cg, 0.85, 0.0, 1)))
    });
    group.bench_function("compress/rmat14", |b| {
        b.iter(|| black_box(CompressedGraph::<ligra_compress::ByteCode>::from_graph(&rm)))
    });
    group.finish();
}

criterion_group!(benches, bench_apps, bench_extension_apps, bench_compressed_apps);
criterion_main!(benches);
