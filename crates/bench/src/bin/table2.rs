//! Regenerates **Table II**: dynamic-power estimation error of the seven
//! HEC-GNN ablation variants (w/o opt., w/o e.f., w/o dir., w/o hetr.,
//! w/o md., sgl., prop.) under leave-one-kernel-out evaluation.
//!
//! ```text
//! cargo run -p powergear_bench --release --bin table2 [-- --full] [--kernels atax,mvt]
//! ```

use pg_datasets::{HlsCache, PowerTarget};
use pg_gnn::table2_variants;
use pg_util::{mean, Table};
use powergear::eval::{run_estimators, Estimator};
use powergear_bench::tables::{preset, results_dir};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = preset(&args).unwrap_or_else(|e| {
        eprintln!("table2: {e}");
        std::process::exit(2)
    });
    let variants = table2_variants(cfg.model.hidden);
    let estimators: Vec<Estimator> = variants
        .iter()
        .map(|v| match v.ensemble {
            true => Estimator::Gnn(v.config.clone()),
            false => Estimator::GnnSingle(v.config.clone()),
        })
        .collect();
    let hls = HlsCache::new();
    let run = run_estimators(
        &cfg.build_datasets(&hls),
        &cfg,
        &estimators,
        &hls,
        |_, _, _, _| {},
    );

    let mut header = vec!["Dataset"];
    header.extend(variants.iter().map(|v| v.name));
    let mut table = Table::new(&header);
    let mut per_variant: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for kernel in cfg.kernel_names() {
        let fold = run.fold(&kernel).expect("every kernel is evaluated");
        let mut row = vec![kernel.clone()];
        for (e, col) in per_variant.iter_mut().enumerate() {
            let err = fold.mape(e, PowerTarget::Dynamic);
            col.push(err);
            row.push(Table::fmt_f(err, 2));
        }
        table.row(row);
    }
    let mut avg_row = vec!["Average".to_string()];
    avg_row.extend(per_variant.iter().map(|col| Table::fmt_f(mean(col), 2)));
    table.row(avg_row);

    println!("\nTable II (reproduced): dynamic-power error (%) of HEC-GNN variants\n");
    println!("{table}");
    let out = results_dir().join("table2.txt");
    std::fs::write(&out, format!("{table}")).ok();
    eprintln!("[table2] written to {}", out.display());
}
