//! Fixture: one unjustified cast, well under the (inflated) budget.

pub fn low_byte(value: u32) -> u8 {
    value as u8
}
