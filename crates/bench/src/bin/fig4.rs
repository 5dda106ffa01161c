//! Regenerates Figure 4: Split-C benchmark times normalized to the SP AM
//! version, split into cpu and net components.

fn main() {
    let mut runs = sp_bench::Runs::default();
    let quick = sp_bench::quick();
    let data = sp_bench::splitc_exp::table5(quick, &mut runs);
    println!("Figure 4: Split-C results normalized to SP AM (cpu / net split)\n");
    sp_bench::splitc_exp::print_fig4(&data);
    runs.print();
}
