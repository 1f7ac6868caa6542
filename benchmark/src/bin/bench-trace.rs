//! The traced pass's binary: the same program as `bench` with
//! `p2pdc::allocs::CountingAllocator` installed, so the allocation counters
//! the program exports are live.

#[global_allocator]
static ALLOCATOR: p2pdc::allocs::CountingAllocator = p2pdc::allocs::CountingAllocator;

fn main() {
    p2pdc_benchmark::cli::main(true);
}
