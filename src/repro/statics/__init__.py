"""``repro.statics`` — the repo's AST-based invariant linter (``repro lint``).

Static enforcement of the contracts the test suite can only check
behaviorally.  RPL001–007 are per-file rules; RPL008–010 are
whole-program rules driven by the project call graph
(:mod:`repro.statics.callgraph`) and the interprocedural dataflow engine
(:mod:`repro.statics.dataflow`):

===== ==================================================================
code  invariant
===== ==================================================================
RPL001 no ambient entropy (wall clocks, global RNG) on reproducible paths
RPL002 no order-sensitive accumulation over unordered sources
RPL003 Node/Cluster state mutates only through the SoA listener core
RPL004 to_dict/from_dict pairing; json.dump(s) must pass allow_nan=False
RPL005 store-derived memo caches must show model_version discipline
RPL006 object.__setattr__ on frozen specs only during construction
RPL007 no silently swallowed exceptions on incident-bearing paths
RPL008 no entropy *flow* into persisted documents, through any calls
RPL009 literal service frames conform to protocol.FRAME_SCHEMAS
RPL010 armed fault seams cannot escape an entry point unrecorded
===== ==================================================================

(Plus ``RPL000``: the linter's own hygiene — malformed, reasonless, or
unused suppressions, and files that do not decode or parse.)  See
DESIGN.md items 40 and 47, and ``tests/test_statics.py``.

The package root re-exports nothing, so ``repro.cli`` can build the
``lint`` parser without loading the engine; import from the submodules.
"""
