"""lmbench- and postmark-style workload models (paper Table 4).

Each micro test is a named operation with a vanilla latency (the
paper's measured "Vanilla" column, in microseconds) and the set of
tracepoint events one execution fires.  A security system attaches its
eBPF programs to hooks; the overhead harness adds the simulated eBPF
execution time of every fired program to the vanilla latency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class MicroTest:
    """One lmbench operation."""

    name: str
    vanilla_us: float
    #: (hook substring, fires) — programs attached to matching hooks run
    events: Tuple[Tuple[str, int], ...]


#: paper Table 4's Vanilla column, with the syscall mix each op drives
LMBENCH_TESTS: Tuple[MicroTest, ...] = (
    MicroTest("NULL call", 0.06, (("sys_enter", 1), ("sys_exit", 1))),
    MicroTest("NULL I/O", 0.12, (("sys_enter_read", 1), ("sys_exit_read", 1),
                                 ("sys_enter_write", 1),
                                 ("sys_exit_write", 1))),
    MicroTest("stat", 0.36, (("sys_enter_open", 1), ("sys_exit_open", 1))),
    MicroTest("open/close file", 0.79, (("sys_enter_open", 2),
                                        ("sys_exit_open", 2),
                                        ("sys_enter_close", 2))),
    MicroTest("signal install", 0.10, (("sys_enter", 2), ("sys_exit", 2))),
    MicroTest("signal handle", 0.83, (("sys_enter", 3), ("sys_exit", 3))),
    MicroTest("fork process", 72.87, (("sys_enter_clone", 1),
                                      ("sys_exit_clone", 1),
                                      ("sched_process_exit", 1),
                                      ("sys_enter", 24), ("sys_exit", 24))),
    MicroTest("exec process", 321.53, (("sys_enter_execve", 1),
                                       ("sys_exit_execve", 1),
                                       ("sys_enter_open", 12),
                                       ("sys_exit_open", 12),
                                       ("sys_enter", 60), ("sys_exit", 60))),
    MicroTest("shell process", 738.76, (("sys_enter_execve", 2),
                                        ("sys_exit_execve", 2),
                                        ("sys_enter_clone", 2),
                                        ("sys_exit_clone", 2),
                                        ("sys_enter_open", 30),
                                        ("sys_exit_open", 30),
                                        ("sys_enter", 150),
                                        ("sys_exit", 150))),
    MicroTest("file create (0k)", 4.78, (("sys_enter_open", 2),
                                         ("sys_exit_open", 2),
                                         ("sys_enter_close", 2),
                                         ("sys_enter_write", 1),
                                         ("sys_exit_write", 1))),
    MicroTest("file delete (0k)", 3.02, (("sys_enter_unlink", 2),
                                         ("sys_enter", 4), ("sys_exit", 4))),
    MicroTest("file create (10k)", 9.73, (("sys_enter_open", 2),
                                          ("sys_exit_open", 2),
                                          ("sys_enter_close", 2),
                                          ("sys_enter_write", 6),
                                          ("sys_exit_write", 6))),
    MicroTest("file delete (10k)", 5.00, (("sys_enter_unlink", 2),
                                          ("sys_enter", 6), ("sys_exit", 6))),
    MicroTest("AF_UNIX", 3.42, (("sys_enter_connect", 1),
                                ("sys_exit_connect", 1),
                                ("sys_enter_read", 4), ("sys_exit_read", 4),
                                ("sys_enter_write", 4),
                                ("sys_exit_write", 4))),
    MicroTest("pipe", 5.24, (("sys_enter_read", 6), ("sys_exit_read", 6),
                             ("sys_enter_write", 6), ("sys_exit_write", 6))),
)


@dataclass(frozen=True)
class MacroWorkload:
    """A postmark-style transaction mix."""

    name: str
    vanilla_seconds: float
    #: total events fired over the whole run
    events: Tuple[Tuple[str, int], ...]


POSTMARK = MacroWorkload(
    name="Postmark",
    vanilla_seconds=58.86,
    events=(
        ("sys_enter_open", 60_000),
        ("sys_exit_open", 60_000),
        ("sys_enter_close", 60_000),
        ("sys_enter_read", 180_000),
        ("sys_exit_read", 180_000),
        ("sys_enter_write", 220_000),
        ("sys_exit_write", 220_000),
        ("sys_enter_unlink", 25_000),
        ("sys_enter", 400_000),
        ("sys_exit", 400_000),
    ),
)


def hook_matches(hook: str, event: str) -> bool:
    """Does a program attached to *hook* fire for *event*?

    Tracepoint hooks match exactly; the generic "sys_enter"/"sys_exit"
    raw-tracepoint events fire every program on a sys_* hook of that
    direction (how Sysdig-style agents attach).
    """
    if hook == event:
        return True
    if event == "sys_enter":
        return hook.startswith("sys_enter")
    if event == "sys_exit":
        return hook.startswith("sys_exit")
    return False


def random_ctx(rng: random.Random, size: int) -> bytes:
    """Synthesized tracepoint context: plausible syscall arg payload."""
    return bytes(rng.randrange(256) for _ in range(size))
