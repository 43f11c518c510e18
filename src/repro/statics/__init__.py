"""``repro.statics`` — the repo's AST-based invariant linter (``repro lint``).

Static enforcement of the contracts the test suite can only check
behaviorally.  Every rule is per-file: it reads one parsed module and
reports the lines that break its invariant.

===== ==================================================================
code  invariant
===== ==================================================================
RPL001 no ambient entropy (clocks, global RNG, pid, env) on reproducible paths
RPL002 no order-sensitive accumulation over unordered sources
RPL003 Node/Cluster state mutates only through the SoA listener core
RPL004 to_dict/from_dict pairing; json.dump(s) must pass allow_nan=False
RPL006 object.__setattr__ on frozen specs only during construction
===== ==================================================================

(Plus ``RPL000``: the linter's own hygiene — malformed, reasonless, or
unused suppressions, and files that do not decode or parse.)  See
DESIGN.md items 40 and 47, and ``tests/test_statics.py``.

The package root re-exports nothing, so ``repro.cli`` can build the
``lint`` parser without loading the engine; import from the submodules.
"""
