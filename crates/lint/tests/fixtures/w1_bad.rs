//! W1 fixture: a waiver that suppresses nothing (line 5) is stale; the
//! used waiver on line 10 stays silent; a waiver naming no rule (line 15)
//! is reported too.
fn stale() -> u32 {
    // lint: allow(L4): nothing here ever needed this
    42
}

fn used(x: u64) -> u32 {
    // lint: allow(L4): fixture exercises a consumed waiver
    x as u32
}

fn unknown() -> u32 {
    // lint: allow(L9): no such rule
    7
}
