//! Regenerates **Table III**: ADRS of prediction-model-guided design space
//! exploration at 20/30/40 % sampling budgets, with Vivado / HL-Pow /
//! PowerGear as the dynamic-power predictor, plus PowerGear's relative
//! gains.
//!
//! ```text
//! cargo run -p powergear_bench --release --bin table3 [-- --full] [--kernels atax,mvt]
//! ```

use pg_datasets::PowerTarget::Dynamic;
use pg_dse::{run_dse, DseConfig};
use pg_util::{mean, Table};
use powergear_bench::tables::{cache_path, preset, results_dir, table1_eval, HLPOW, PG, VIVADO};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = preset(&args).unwrap_or_else(|e| {
        eprintln!("table3: {e}");
        std::process::exit(2)
    });
    let (eval, hit) = table1_eval(&cfg);
    let verb = if hit { "loaded" } else { "cached" };
    eprintln!("[table3] {verb} {}", cache_path(&cfg).display());

    let budgets = [0.2, 0.3, 0.4];
    let mut table = Table::new(&[
        "Budget",
        "Vivado",
        "HL-Pow",
        "PowerGear",
        "vs Vivado",
        "vs HL-Pow",
    ]);

    for &budget in &budgets {
        let mut viv_scores = Vec::new();
        let mut hlp_scores = Vec::new();
        let mut pg_scores = Vec::new();
        for kernel in cfg.kernel_names() {
            let (fold, _) = eval.kernel(&kernel).expect("every kernel is evaluated");
            if fold.latency.len() < 10 {
                continue;
            }
            let truth = fold.truth_of(Dynamic);
            // average over a few seeds to de-noise the sampling loop
            for seed in [3u64, 11, 19] {
                let dcfg = DseConfig::with_budget(budget, seed);
                let adrs = |e| run_dse(&fold.latency, truth, fold.preds_of(e, Dynamic), &dcfg).adrs;
                viv_scores.push(adrs(VIVADO));
                hlp_scores.push(adrs(HLPOW));
                pg_scores.push(adrs(PG));
            }
        }
        let (viv, hlp, pg) = (mean(&viv_scores), mean(&hlp_scores), mean(&pg_scores));
        let gain = |base: f64| {
            if base > 1e-12 {
                100.0 * (base - pg) / base
            } else {
                0.0
            }
        };
        table.row(vec![
            format!("{:.0}%", budget * 100.0),
            Table::fmt_f(viv, 4),
            Table::fmt_f(hlp, 4),
            Table::fmt_f(pg, 4),
            format!("{:.1}%", gain(viv)),
            format!("{:.1}%", gain(hlp)),
        ]);
    }

    println!("\nTable III (reproduced): ADRS of HLS-based DSE\n");
    println!("{table}");
    let out = results_dir().join("table3.txt");
    std::fs::write(&out, format!("{table}")).ok();
    eprintln!("[table3] written to {}", out.display());
}
