"""``wallclock-entropy`` — wall-clock reads stay in the timing tier.

"Bit-identical replay" means a result may depend only on its config and
seed. Wall-clock timestamps, OS randomness, and UUIDs smuggle ambient
state into outputs: a payload stamped with ``time.time()`` can never
equal its replay. Only the declared timing tier (``repro.bench``,
``benchmarks/``, the batch engine's elapsed-seconds bookkeeping) may
read these sources; elapsed-time measurement via ``time.perf_counter``
/ ``time.monotonic`` is allowed everywhere because it never feeds
stored values' identity.

A legitimate out-of-tier use (e.g. a created-at stamp excluded from
result identity) declares itself with an inline pragma, which is
exactly the audit trail the contract wants.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import RULES, ImportMap, LintRule, SourceFile, dotted_name
from repro.analysis.findings import Finding

#: Canonical call targets that read wall-clock time or OS entropy.
BANNED_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.asctime",
        "time.localtime",
        "time.gmtime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.randbits",
        "secrets.choice",
        "secrets.SystemRandom",
    }
)


@RULES.register("wallclock-entropy")
class WallclockEntropyRule(LintRule):
    """Forbid wall-clock/OS-entropy reads outside the timing tier."""

    rule_id = "wallclock-entropy"
    summary = (
        "time.time/datetime.now/os.urandom/uuid4-style ambient state is "
        "confined to the declared timing tier"
    )

    def check(self, src: SourceFile, config) -> "Iterator[Finding]":
        if config.in_timing_tier(src):
            return
        imports = ImportMap(src.tree)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            name = imports.canonical(dotted_name(node.func))
            if name in BANNED_CALLS:
                yield Finding(
                    src.relpath,
                    node.lineno,
                    node.col_offset,
                    self.rule_id,
                    f"{name} reads wall-clock/OS state outside the timing "
                    "tier; derive values from the config+seed, or declare "
                    "the tier/pragma if this never feeds result identity",
                )
