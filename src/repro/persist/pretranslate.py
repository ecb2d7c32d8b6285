"""Static (offline) pre-translation — the paper's §5 comparison point.

Static pre-translators translate *every* instruction of a binary offline
so no run-time compilation is needed.  The paper argues this is
infeasible for large applications: translation expands code severely
(field experiments saw ~10x with instrumentation), so a 100MB Oracle
becomes ~1GB pre-translated, while a persistent code cache holds only the
code that actually executed (256MB in their setup).

:func:`pretranslate_image` performs the offline translation of one image
by linear sweep: traces are selected back-to-back over the whole
executable section and translated exactly as the run-time compiler would,
yielding the code-pool and data-pool bytes a static scheme must store.
:func:`pretranslate_process` covers an executable plus all its libraries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.binfmt.image import Image
from repro.loader.linker import LoadedProcess
from repro.machine.costs import CostModel, DEFAULT_COST_MODEL
from repro.vm.client import Tool
from repro.vm.trace import DEFAULT_MAX_TRACE_INSTS, TraceSelector
from repro.vm.translator import Translator


@dataclass
class PretranslationResult:
    """Size/cost accounting of an offline translation."""

    original_code_bytes: int = 0
    translated_code_bytes: int = 0
    data_structure_bytes: int = 0
    traces: int = 0
    compile_cycles: float = 0.0

    @property
    def total_bytes(self) -> int:
        return self.translated_code_bytes + self.data_structure_bytes

    @property
    def expansion_factor(self) -> float:
        """Stored bytes per original code byte."""
        if self.original_code_bytes == 0:
            return 0.0
        return self.total_bytes / self.original_code_bytes

    def merge(self, other: "PretranslationResult") -> None:
        self.original_code_bytes += other.original_code_bytes
        self.translated_code_bytes += other.translated_code_bytes
        self.data_structure_bytes += other.data_structure_bytes
        self.traces += other.traces
        self.compile_cycles += other.compile_cycles


def pretranslate_image(
    image: Image,
    tool: Optional[Tool] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    max_trace_insts: int = DEFAULT_MAX_TRACE_INSTS,
) -> PretranslationResult:
    """Offline-translate the entire ``.text`` of one image."""
    text = image.section(".text")
    code = bytes(text.data)
    selector = TraceSelector.over(code, max_trace_insts=max_trace_insts)
    translator = Translator(cost_model, tool)
    result = PretranslationResult(original_code_bytes=len(code))
    cursor = 0
    while cursor < len(code):
        trace = selector.select(cursor, image_path=image.path, image_base=0)
        translation = translator.translate(trace)
        result.translated_code_bytes += translation.translated.code_size
        result.data_structure_bytes += translation.translated.data_size
        result.traces += 1
        result.compile_cycles += translation.compile_cycles
        cursor += trace.size
    return result


def pretranslate_process(
    process: LoadedProcess,
    tool: Optional[Tool] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> PretranslationResult:
    """Offline-translate the executable and every loaded library."""
    total = PretranslationResult()
    for mapping in process.mappings:
        total.merge(pretranslate_image(mapping.image, tool, cost_model))
    return total
