//! Regenerates Table 5: absolute Split-C benchmark execution times on
//! eight processors across the five platforms.

use sp_splitc::Platform;

fn main() {
    let mut runs = sp_bench::Runs::default();
    let quick = sp_bench::quick();
    let data = sp_bench::splitc_exp::table5(quick, &mut runs);
    println!("Table 5: Split-C benchmark execution times, 8 processors (seconds, scaled class)\n");
    print!("{:>12}", "Benchmark");
    for p in Platform::all() {
        print!("  {:>14}", p.name());
    }
    println!();
    println!("{}", "-".repeat(95));
    for (app, row) in &data {
        print!("{:>12}", app.label());
        for (_, t) in row {
            print!("  {:>13.3}s", t.total.as_secs());
        }
        println!();
    }
    println!("\nexpected shape (paper): SP AM fastest or tied everywhere; SP MPL ~equal for");
    println!("mm 128 and bulk sorts, 2-4x slower for the fine-grain (sm) variants; CM-5");
    println!("slowest cpu but competitive comm; CS-2/U-Net in between.");

    // Figure 4 from the same data (normalized to SP AM, cpu/net split) —
    // printed here so `repro-all` doesn't pay for the sweep twice.
    println!("\nFigure 4: the same runs normalized to SP AM (cpu / net split)\n");
    sp_bench::splitc_exp::print_fig4(&data);
    runs.print();
}
