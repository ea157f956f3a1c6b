//! Regenerates **Table I**: dataset properties, total- and dynamic-power
//! estimation errors for every method, and the runtime speedup over the
//! Vivado estimator surrogate.
//!
//! ```text
//! cargo run -p powergear_bench --release --bin table1 [-- --full] [--kernels atax,mvt]
//! ```

use pg_datasets::PowerTarget::{Dynamic, Total};
use pg_util::{mean, Table};
use powergear_bench::tables::{
    cache_path, preset, results_dir, table1_eval, BASELINES, HLPOW, PG, VIVADO,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = preset(&args).unwrap_or_else(|e| {
        eprintln!("table1: {e}");
        std::process::exit(2)
    });
    let (eval, hit) = table1_eval(&cfg);
    let verb = if hit { "loaded" } else { "cached" };
    eprintln!("[table1] {verb} {}", cache_path(&cfg).display());

    let mut table = Table::new(&[
        "Dataset",
        "#Samples",
        "Avg.#Nodes",
        "Viv tot%",
        "HLP tot%",
        "PG tot%",
        "GCN dyn%",
        "Sage dyn%",
        "GConv dyn%",
        "GINE dyn%",
        "HLP dyn%",
        "PG dyn%",
        "Speedup",
    ]);

    let mut n_samples = Vec::new();
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 11];
    for kernel in cfg.kernel_names() {
        let (fold, info) = eval.kernel(&kernel).expect("every kernel is evaluated");
        let mut errs = vec![
            fold.mape(VIVADO, Total),
            fold.mape(HLPOW, Total),
            fold.mape(PG, Total),
        ];
        errs.extend(BASELINES.map(|e| fold.mape(e, Dynamic)));
        errs.extend([fold.mape(HLPOW, Dynamic), fold.mape(PG, Dynamic)]);
        let speedup = info.viv_ms / info.pg_ms.max(1e-9);
        let vals = std::iter::once(info.avg_nodes).chain(errs.iter().copied());
        for (c, v) in cols.iter_mut().zip(vals.chain([speedup])) {
            c.push(v);
        }
        n_samples.push(fold.latency.len() as f64);
        let mut row = vec![
            kernel.clone(),
            fold.latency.len().to_string(),
            format!("{:.0}", info.avg_nodes),
        ];
        row.extend(errs.iter().map(|&e| Table::fmt_f(e, 2)));
        row.push(format!("{speedup:.2}x"));
        table.row(row);
    }
    let mut avg = vec![
        "Average".to_string(),
        format!("{:.0}", mean(&n_samples)),
        format!("{:.0}", mean(&cols[0])),
    ];
    avg.extend(cols[1..10].iter().map(|c| Table::fmt_f(mean(c), 2)));
    avg.push(format!("{:.2}x", mean(&cols[10])));
    table.row(avg);

    println!("\nTable I (reproduced): estimation error (MAPE %) and speedup\n");
    println!("{table}");
    let out = results_dir().join("table1.txt");
    std::fs::write(&out, format!("{table}")).ok();
    eprintln!("[table1] written to {}", out.display());
}
