//! Fig. 8 — compressed vs decompressed bytes per entry (MNIST).
//!
//! "Our implementation compresses memory-mapped data structures to reduce
//! storage demand. Results shown are for the MNIST data set." The paper's
//! bars compare Bolt's packed layouts against verbose ones for dictionary
//! masks, dictionary features, table results, and the stored dictionary
//! entry ID.
//!
//! Run: `cargo run -p bolt-bench --release --bin fig08_layout`

use bolt_bench::{print_table, train_workload};
use bolt_core::layout::PackedBolt;
use bolt_core::{BoltConfig, BoltForest, LayoutReport};
use bolt_data::Workload;

fn main() {
    // The paper's Fig. 8 forest: MNIST with 100 constituent trees (§5).
    let trained = train_workload(Workload::MnistLike, 100, 8, 2000, 200);
    let bolt = BoltForest::compile(
        &trained.forest,
        &BoltConfig::default().with_cluster_threshold(2),
    )
    .expect("MNIST forest is table-mappable");
    let report = LayoutReport::for_forest(&bolt);

    print_table(
        "Figure 8: bytes per entry, Bolt (compressed) vs decompressed [MNIST, 100 trees]",
        &["section", "BOLT", "decompressed", "ratio"],
        &[
            row(
                "Dictionary: masks",
                report.masks.compressed,
                report.masks.decompressed,
            ),
            row(
                "Dictionary: features",
                report.features.compressed,
                report.features.decompressed,
            ),
            row(
                "Lookup table: results",
                report.results.compressed,
                report.results.decompressed,
            ),
            row(
                "Lookup table: dictionary entry ID",
                report.entry_id.compressed,
                report.entry_id.decompressed,
            ),
            row(
                "Dictionary total",
                report.dictionary_compressed(),
                report.dictionary_decompressed(),
            ),
            row(
                "Lookup table total",
                report.table_compressed(),
                report.table_decompressed(),
            ),
        ],
    );

    println!(
        "entry-bitmap index (single-sample match; no verbose counterpart): {} bytes per dictionary entry",
        report.index_per_entry
    );

    // Prove the packed layout is executable, not just accounting.
    let packed = PackedBolt::from_bolt(&bolt);
    let mut agree = 0usize;
    for (sample, _) in trained.test.iter() {
        if packed.classify_bits(&bolt.encode(sample)) == trained.forest.predict(sample) {
            agree += 1;
        }
    }
    println!(
        "\npacked engine: {} dictionary entries, {} table cells, {} KiB packed heap",
        bolt.dictionary().len(),
        bolt.table().n_cells(),
        packed.packed_bytes() / 1024,
    );
    println!(
        "packed-engine equivalence on {} test samples: {agree}/{}",
        trained.test.len(),
        trained.test.len()
    );
}

fn row(name: &str, compressed: usize, decompressed: usize) -> Vec<String> {
    vec![
        name.to_owned(),
        format!("{compressed}"),
        format!("{decompressed}"),
        format!("{:.1}x", decompressed as f64 / compressed.max(1) as f64),
    ]
}
