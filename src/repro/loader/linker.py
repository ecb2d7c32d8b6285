"""Dynamic linker: builds a runnable process image from SBF images.

Loading follows the classic ``ld.so`` shape the paper depends on:

1. the executable is mapped at its base,
2. its ``needed`` list is walked breadth-first and each shared library is
   mapped once, in discovery order, at a base chosen by the
   :class:`~repro.loader.layout.LoadLayout` policy,
3. global symbols are resolved in load order (first definition wins, with
   the defining image preferred for its own references),
4. relocations are applied in place in each mapping's private copy, in
   one pass per image (:func:`_relocate`, shared with ``dlopen``).

The resulting :class:`LoadedProcess` also records the ordered *load events*
(image, base, size) that the VM's persistent-cache manager intercepts to
compute and check cache keys (paper §3.2.3: "all library loads are
intercepted and keys are computed on the loaded binary").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.binfmt.image import Image, ImageKind
from repro.binfmt.relocations import RelocationError, apply_relocation
from repro.binfmt.sections import align_up
from repro.loader.layout import FixedLayout, LoadLayout, LIBRARY_ALIGN
from repro.loader.mapper import AddressSpace, Mapping


class LinkError(Exception):
    """Raised when a process image cannot be constructed."""


@dataclass(frozen=True)
class LoadEvent:
    """One image becoming resident: what the VM's load hook observes."""

    image: Image
    base: int
    size: int
    order: int


#: First base address handed to dynamically loaded modules.
DYNAMIC_REGION_START = 0x3000_0000


@dataclass
class LoadedProcess:
    """A fully linked, runnable address space.

    Besides the statically linked images, a process may carry *optional
    modules*: images registered at link time but mapped/unmapped at run
    time through the ``dlopen``/``dlclose`` system calls.  A module keeps
    the same base across reload cycles within a process (and, because base
    assignment is deterministic in dlopen order, across runs that open
    modules in the same order).
    """

    space: AddressSpace
    executable: Image
    mappings: List[Mapping] = field(default_factory=list)
    load_events: List[LoadEvent] = field(default_factory=list)
    entry_address: int = 0
    #: Module index -> image, for dynamic loading.
    optional_modules: Dict[int, Image] = field(default_factory=dict)
    #: Module index -> currently live mapping.
    loaded_modules: Dict[int, Mapping] = field(default_factory=dict)
    #: Module index -> assigned base (stable across reloads).
    _module_bases: Dict[int, int] = field(default_factory=dict)
    _dynamic_cursor: int = DYNAMIC_REGION_START

    # -- dynamic modules ----------------------------------------------------

    def load_module(self, index: int) -> Mapping:
        """Map and relocate optional module ``index`` (idempotent)."""
        live = self.loaded_modules.get(index)
        if live is not None:
            return live
        try:
            image = self.optional_modules[index]
        except KeyError as exc:
            raise LinkError("no optional module %d" % index) from exc
        base = self._module_bases.get(index)
        if base is None:
            base = align_up(self._dynamic_cursor, LIBRARY_ALIGN)
            self._module_bases[index] = base
            self._dynamic_cursor = align_up(base + image.size, LIBRARY_ALIGN)
        mapping = self.space.map_image(image, base)
        self.loaded_modules[index] = mapping
        try:
            _relocate(mapping, self.resolve_symbol)
        except RelocationError as exc:
            self.space.remove_mapping(mapping)
            del self.loaded_modules[index]
            raise LinkError(
                "relocating module %s: %s" % (image.path, exc)
            ) from exc
        return mapping

    def unload_module(self, index: int) -> Mapping:
        """Unmap optional module ``index``; returns the dead mapping."""
        mapping = self.loaded_modules.pop(index, None)
        if mapping is None:
            raise LinkError("module %d is not loaded" % index)
        self.space.remove_mapping(mapping)
        return mapping

    def mapping_of(self, path: str) -> Mapping:
        for mapping in self.mappings:
            if mapping.image is not None and mapping.image.path == path:
                return mapping
        raise KeyError("image %r is not loaded" % path)

    def image_at(self, addr: int) -> Optional[Mapping]:
        """Return the image mapping containing ``addr``, or None.  The
        address space's load/store window does not move."""
        mapping = self.space.mapping_at(addr)
        if mapping is None or mapping.image is None:
            return None
        return mapping

    def resolve_symbol(self, name: str) -> int:
        """Absolute address of a global symbol, searched in load order."""
        for mapping in self.mappings:
            sym = mapping.image.global_symbols().get(name)
            if sym is not None:
                return mapping.base + sym.vaddr
        raise KeyError("undefined symbol %r" % name)

    def symbolize(self, addr: int) -> str:
        """Human-readable ``image!symbol+offset`` form of an address."""
        mapping = self.image_at(addr)
        if mapping is None:
            return "0x%x" % addr
        rel = addr - mapping.base
        best_name, best_vaddr = None, -1
        for sym in mapping.image.symbols:
            if best_vaddr < sym.vaddr <= rel:
                best_name, best_vaddr = sym.name, sym.vaddr
        if best_name is None:
            return "%s+0x%x" % (mapping.image.path, rel)
        offset = rel - best_vaddr
        suffix = "+0x%x" % offset if offset else ""
        return "%s!%s%s" % (mapping.image.path, best_name, suffix)


ImageResolver = Callable[[str], Image]


class ImageStore:
    """A simple path -> Image resolver backed by a dict."""

    def __init__(self, images: Optional[Dict[str, Image]] = None):
        self._images: Dict[str, Image] = dict(images or {})

    def add(self, image: Image) -> None:
        self._images[image.path] = image

    def __call__(self, path: str) -> Image:
        try:
            return self._images[path]
        except KeyError as exc:
            raise LinkError("cannot resolve library %r" % path) from exc

    def __contains__(self, path: str) -> bool:
        return path in self._images


def _collect_images(executable: Image, resolver: ImageResolver) -> List[Image]:
    """Executable plus transitively needed libraries, load order."""
    ordered = [executable]
    seen = {executable.path}
    queue = list(executable.needed)
    while queue:
        path = queue.pop(0)
        if path in seen:
            continue
        seen.add(path)
        library = resolver(path)
        if library.kind != ImageKind.SHARED_LIBRARY:
            raise LinkError("needed image %r is not a shared library" % path)
        ordered.append(library)
        queue.extend(library.needed)
    return ordered


def load_process(
    executable: Image,
    resolver: Optional[ImageResolver] = None,
    layout: Optional[LoadLayout] = None,
    space: Optional[AddressSpace] = None,
    optional_modules: Optional[List[Image]] = None,
) -> LoadedProcess:
    """Map and link ``executable`` and its libraries into a process.

    Args:
        executable: The main image.
        resolver: Maps library paths to images; may be omitted when the
            executable has no dependencies.
        layout: Base-address policy; defaults to :class:`FixedLayout`.
        space: Existing address space to populate (a fresh one by default).
        optional_modules: Images loadable at run time through ``dlopen``
            (module index = position in this list).

    Raises:
        LinkError: Unresolvable libraries or relocation failures.
    """
    if executable.kind != ImageKind.EXECUTABLE:
        raise LinkError("%r is not an executable image" % executable.path)
    layout = layout or FixedLayout()
    space = space or AddressSpace()
    if resolver is None:
        if executable.needed:
            raise LinkError("executable needs libraries but no resolver given")
        resolver = ImageStore()

    images = _collect_images(executable, resolver)
    process = LoadedProcess(space=space, executable=executable)
    for module_index, module in enumerate(optional_modules or ()):
        process.optional_modules[module_index] = module

    cursor = layout.initial_cursor()
    for order, image in enumerate(images):
        if image.kind == ImageKind.EXECUTABLE:
            base = layout.executable_base(image)
        else:
            base = layout.library_base(image, cursor)
            cursor = align_up(base + image.size, LIBRARY_ALIGN)
        mapping = space.map_image(image, base)
        process.mappings.append(mapping)
        process.load_events.append(
            LoadEvent(image=image, base=base, size=mapping.size, order=order)
        )

    # Relocate every mapping.  Symbol search prefers the defining image,
    # then falls back to load order.
    global_addresses: Dict[str, int] = {}
    for mapping in process.mappings:
        for name, sym in mapping.image.global_symbols().items():
            global_addresses.setdefault(name, mapping.base + sym.vaddr)
    for mapping in process.mappings:
        try:
            _relocate(mapping, global_addresses.__getitem__)
        except RelocationError as exc:
            raise LinkError(
                "relocating %s: %s" % (mapping.image.path, exc)
            ) from exc

    process.entry_address = process.mappings[0].base + executable.entry
    return process


def _relocate(mapping: Mapping, resolve_global: Callable[[str], int]) -> None:
    """Apply every relocation of ``mapping``'s image, in place, to the
    mapping's contiguous private copy of the image.

    Relocation offsets are section-relative, so each site is shifted by
    its section's vaddr.  A SYMBOL site resolves against the image's own
    symbols first, then through ``resolve_global``, which raises
    ``KeyError`` for an undefined name.
    """
    image = mapping.image
    base = mapping.base
    own = image.symbol_table()

    def resolve(name: str) -> int:
        symbol = own.get(name)
        return resolve_global(name) if symbol is None else base + symbol.vaddr

    # Built last to first, so the first section of a name wins, as
    # Image.section finds it.
    vaddrs = {section.name: section.vaddr
              for section in reversed(image.sections)}
    for reloc in image.relocations:
        name = reloc.section
        vaddr = vaddrs[name] if name in vaddrs else image.section(name).vaddr
        apply_relocation(reloc, mapping.data, base, resolve, vaddr)
