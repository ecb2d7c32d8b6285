"""The run-time compilation system (Pin-like DBI engine)."""

from repro.vm.client import (
    AnalysisContext,
    InstrumentationPoint,
    NullTool,
    PointKind,
    Tool,
    ToolAccounting,
)
from repro.vm.codecache import (
    CacheFull,
    CodeCache,
    DEFAULT_CODE_POOL_BYTES,
    DEFAULT_DATA_POOL_BYTES,
)
from repro.vm.engine import (
    Engine,
    EngineError,
    VMConfig,
    VMRunResult,
    VM_VERSION,
)
from repro.vm.stats import CodeCacheStats, HostStats, VMStats
from repro.vm.trace import (
    DEFAULT_MAX_TRACE_INSTS,
    ExitKind,
    Trace,
    TraceExit,
    TraceSelector,
)
from repro.vm.translator import (
    LinkSlot,
    TranslatedTrace,
    TranslationResult,
    Translator,
    build_resident,
    compute_liveness,
)

__all__ = [
    "AnalysisContext",
    "CacheFull",
    "CodeCache",
    "CodeCacheStats",
    "DEFAULT_CODE_POOL_BYTES",
    "DEFAULT_DATA_POOL_BYTES",
    "DEFAULT_MAX_TRACE_INSTS",
    "Engine",
    "EngineError",
    "ExitKind",
    "HostStats",
    "InstrumentationPoint",
    "LinkSlot",
    "NullTool",
    "PointKind",
    "Tool",
    "ToolAccounting",
    "Trace",
    "TraceExit",
    "TraceSelector",
    "TranslatedTrace",
    "TranslationResult",
    "Translator",
    "VMConfig",
    "VMRunResult",
    "VMStats",
    "VM_VERSION",
    "build_resident",
    "compute_liveness",
]
