//! End-to-end runs (`--trace 0`): the system allocator, no spans.

fn main() -> std::process::ExitCode {
    csbench::main(false)
}
