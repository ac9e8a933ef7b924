"""Declared bound curves used by the harness and the acceptance suite.

Every inequality the test suite enforces is pinned here rather than
buried in test code: static label sizes and marker message counts,
message budgets and the floors of a restart and of a join's signals
for scheme runs, label-size growth constants, and external-memory
curves per port model.
"""

from __future__ import annotations


def log2c(n: int) -> int:
    """Ceiling log2, at least 1."""
    return max(1, (max(n, 2) - 1).bit_length())


# Port width budgeted for stable and compact ports: the default cap's.
STABLE_PORT_BITS = 21


def port_cap_bits(port_cap: int) -> int:
    return max(1, port_cap.bit_length())


# Static schemes: LS(pi, n) label bits, given the port width (only
# routing labels hold ports), and MC(pi, n) marker messages.


def interval_label_budget(n: int, port_bits: int = STABLE_PORT_BITS) -> int:
    return 4 * log2c(n) + 6


def separator_label_budget(n: int, port_bits: int = STABLE_PORT_BITS) -> int:
    lg = log2c(n)
    return 4 * lg * (lg + 2) + 4 * lg + 8


def routing_label_budget(n: int, port_bits: int = STABLE_PORT_BITS) -> int:
    lg = log2c(n)
    return 2 * lg * (lg + port_bits) + 6 * lg + 4 * port_bits + 12


def marker_message_budget(m: int) -> int:
    """Per-invocation marker budget for an m-member scope."""
    return 2 * m


def restart_message_budget(n0: int, mc: int) -> int:
    """Protocol messages of one restart on n0 nodes, given mc = MC(pi,
    n0): the whole-tree reset's count, 2(n0 - 1), and marker, mc, then
    the broadcast of fresh memory, n0 - 1."""
    return 2 * (n0 - 1) + mc + (n0 - 1)


def restart_message_floor(n0: int) -> int:
    """The fewest protocol messages one restart on n0 nodes may charge:
    the whole-tree reset's count, 2(n0 - 1), and its marker's one round
    trip per edge, 2(n0 - 1)."""
    return 2 * (n0 - 1) + 2 * (n0 - 1)


def join_signal_floor(joins: int) -> int:
    """The fewest ``signal`` messages an event with this many joins may
    charge: each join signals from the new leaf to its level-1 scope
    root, a strict ancestor, so it takes at least one hop."""
    return joins


def finite_run_message_budget(quota: int, levels: int, mc_pi: int) -> int:
    """Hard cap on protocol messages of one finite-scheme run:
    five marker budgets per level per quota unit."""
    return 5 * levels * quota * mc_pi


# Multiplier applied to levels * static-label budget when checking the
# maximum dynamic label size of a run.
LABEL_OVERHEAD_PER_LEVEL = 24
LABEL_RATIO_CONSTANT = 6.0


def dynamic_label_budget(ls_pi_bits: int, levels: int) -> int:
    return (levels + 1) * (ls_pi_bits + LABEL_OVERHEAD_PER_LEVEL)


# External-memory curves.  A node stores per-level counters plus at most
# two backup copies of sibling memories, hence the constant factors.
MEM_DESIGNER_FACTOR = 4
MEM_ADVERSARY_FACTOR = 4


def designer_memory_budget(n: int, levels: int) -> int:
    return MEM_DESIGNER_FACTOR * (levels + 2) * (2 * log2c(n) + 16)


def adversary_memory_budget(n: int, levels: int, port_cap: int) -> int:
    tau_bits = port_cap_bits(port_cap)
    return MEM_ADVERSARY_FACTOR * (levels + 2) * (2 * log2c(n) + 2 * tau_bits + 16)
