//! Regenerates the paper's tables.
//!
//! Usage: `regen-tables [--table 1|2|3|4|5|6|7|ablation|headline|energy|all] [--full]`
//!
//! Without `--full` the drivers run at smoke scale (1/16 geometry,
//! short training) so a debug build finishes quickly; `--full`
//! reproduces the reference numbers recorded in EXPERIMENTS.md and
//! wants a release build.

use gobo::experiments::{
    ablation, energy, headline, table1, table2, table3, table4, table5, table6, table7,
    ExperimentOptions,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let table = args
        .iter()
        .position(|a| a == "--table")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("all")
        .to_owned();
    let options = if full { ExperimentOptions::full() } else { ExperimentOptions::smoke() };
    println!(
        "# scale: {} (geometry 1/{}, zoo {:?})\n",
        if full { "full" } else { "smoke" },
        options.geometry_divisor,
        options.zoo_scale
    );

    let want = |name: &str| table == "all" || table == name;
    let mut ran = false;
    if want("1") {
        println!("{}", table1::run());
        ran = true;
    }
    if want("2") {
        println!("{}", table2::run());
        ran = true;
    }
    if want("3") {
        match table3::run(&options) {
            Ok(t) => println!("{t}"),
            Err(e) => eprintln!("table 3 failed: {e}"),
        }
        ran = true;
    }
    if want("4") {
        match table4::run(&options) {
            Ok(t) => println!("{t}"),
            Err(e) => eprintln!("table 4 failed: {e}"),
        }
        ran = true;
    }
    if want("5") {
        match table5::run(&options) {
            Ok(t) => println!("{t}"),
            Err(e) => eprintln!("table 5 failed: {e}"),
        }
        ran = true;
    }
    if want("6") {
        match table6::run(&options) {
            Ok(t) => println!("{t}"),
            Err(e) => eprintln!("table 6 failed: {e}"),
        }
        ran = true;
    }
    if want("7") {
        match table7::run(&options) {
            Ok(t) => println!("{t}"),
            Err(e) => eprintln!("table 7 failed: {e}"),
        }
        ran = true;
    }
    if want("ablation") {
        match ablation::run(&options) {
            Ok(t) => println!("{t}"),
            Err(e) => eprintln!("ablation table failed: {e}"),
        }
        match ablation::layer(&options) {
            Ok(t) => println!("{t}"),
            Err(e) => eprintln!("layer-level ablation failed: {e}"),
        }
        ran = true;
    }
    if want("headline") {
        match headline::run(&options) {
            Ok(t) => println!("{t}"),
            Err(e) => eprintln!("headline summary failed: {e}"),
        }
        ran = true;
    }
    if want("energy") {
        match energy::run(&options) {
            Ok(t) => println!("{t}"),
            Err(e) => eprintln!("energy table failed: {e}"),
        }
        ran = true;
    }
    if !ran {
        eprintln!("unknown table `{table}`; expected 1..7, ablation, headline, energy, or all");
        std::process::exit(2);
    }
}
