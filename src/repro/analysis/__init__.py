"""Static analysis over guest programs: CFG, dataflow, linter, oracle.

Public surface:

* :class:`~repro.analysis.cfg.CFG` / :class:`~repro.analysis.cfg.BasicBlock`
* :func:`~repro.analysis.dom.dominators`,
  :func:`~repro.analysis.dom.postdominators`,
  :func:`~repro.analysis.dom.natural_loops`
* :func:`~repro.analysis.dataflow.solve`,
  :func:`~repro.analysis.dataflow.reaching_definitions`,
  :func:`~repro.analysis.dataflow.liveness`
* :func:`~repro.analysis.lint.lint_program` and the
  :class:`~repro.analysis.lint.Diagnostic` records it emits
* :func:`~repro.analysis.redundancy.analyze_program` /
  :func:`~repro.analysis.redundancy.analyze_build` and the
  :class:`~repro.analysis.redundancy.OracleReport` they return
* :func:`~repro.analysis.values.analyze_values_cfg`, the value-level
  fixpoint (intervals, value numbers, loop-uniformity widening) the
  oracle is built on, with its :class:`~repro.analysis.values.MemoryModel`
  and :class:`~repro.analysis.values.ValueAnalysis` results
"""

from repro.analysis.cfg import CFG, BasicBlock
from repro.analysis.dataflow import (
    ENTRY_DEF,
    DataflowDivergence,
    Liveness,
    MustDefined,
    ReachingDefs,
    liveness,
    must_defined,
    reaching_definitions,
    solve,
)
from repro.analysis.dom import (
    VIRTUAL_EXIT,
    dominates,
    dominators,
    loop_depths,
    natural_loops,
    postdominators,
)
from repro.analysis.lint import (
    RULES,
    Diagnostic,
    lint_instructions,
    lint_program,
    rule_catalogue,
)
from repro.analysis.redundancy import (
    OracleReport,
    analyze_build,
    analyze_cfg,
    analyze_program,
)
from repro.analysis.values import (
    LoadClass,
    MemoryModel,
    Region,
    ValueAnalysis,
    ValueAnalysisDivergence,
    analyze_values_cfg,
    regions_from_symbols,
)

__all__ = [
    "CFG",
    "BasicBlock",
    "ENTRY_DEF",
    "DataflowDivergence",
    "Liveness",
    "MustDefined",
    "ReachingDefs",
    "liveness",
    "must_defined",
    "reaching_definitions",
    "solve",
    "VIRTUAL_EXIT",
    "dominates",
    "dominators",
    "loop_depths",
    "natural_loops",
    "postdominators",
    "RULES",
    "Diagnostic",
    "lint_instructions",
    "lint_program",
    "rule_catalogue",
    "OracleReport",
    "analyze_build",
    "analyze_cfg",
    "analyze_program",
    "LoadClass",
    "MemoryModel",
    "Region",
    "ValueAnalysis",
    "ValueAnalysisDivergence",
    "analyze_values_cfg",
    "regions_from_symbols",
]
