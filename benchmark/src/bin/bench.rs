//! The benchmark's entry point, on the system allocator. `--trace 1`
//! re-executes `bench-trace`, the same program with the counting allocator.

fn main() {
    p2pdc_benchmark::cli::main(false);
}
