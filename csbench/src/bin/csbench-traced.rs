//! The traced run (`--trace 1`): spans plus per-span allocation counts.

#[global_allocator]
static ALLOC: csbench::alloc::CountingAlloc = csbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    csbench::main(true)
}
