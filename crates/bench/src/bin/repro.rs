//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p oeb-bench --release --bin repro -- all
//! cargo run -p oeb-bench --release --bin repro -- table4 fig10 --scale 0.2 --seeds 3
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match oeb_bench::parse_args(&args) {
        Ok(opts) => opts,
        Err(usage) => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    match oeb_bench::run_repro(&opts) {
        Ok(outputs) => {
            for out in &outputs {
                oeb_core::console::print(&format!(
                    "=== {} — {} ===\n{}\n",
                    out.id, out.title, out.text
                ));
            }
            eprintln!(
                "[repro] wrote {} artifacts to {}/",
                outputs.len() * 2,
                opts.out_dir
            );
        }
        Err(e) => {
            eprintln!("[repro] failed: {e}");
            std::process::exit(1);
        }
    }
}
