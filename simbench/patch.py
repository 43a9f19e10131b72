"""Replace and restore functions of the simulator from the outside.

The benchmark measures the simulator without editing it: it swaps
functions on their classes and modules for wrappers and puts the
originals back afterwards. A module-level function is also swapped in
every ``repro`` module that imported it by name, because
``from x import f`` binds ``f`` at import time.
"""

from __future__ import annotations

import sys
from typing import Callable, List, Tuple


class Patches:
    """A set of attribute replacements that can be undone as one."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        """Replace ``owner.name`` with ``value``, remembering the original."""
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def method(self, cls: type, name: str, make: Callable) -> None:
        """Wrap the function stored as ``cls.name``; ``make(fn)`` builds the wrapper.

        Static and class methods are unwrapped, wrapped, and re-wrapped
        in the same descriptor type.
        """
        raw = vars(cls)[name]
        if isinstance(raw, (staticmethod, classmethod)):
            self.set(cls, name, type(raw)(make(raw.__func__)))
        else:
            self.set(cls, name, make(raw))

    def function(self, fn: Callable, wrapper: Callable) -> None:
        """Replace ``fn`` by ``wrapper`` wherever a ``repro`` module binds it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, wrapper)

    def saved(self) -> List[Tuple[object, str, object]]:
        """``(owner, name, original)`` for every replacement in force."""
        return list(self._saved)

    def restore(self) -> None:
        """Put every original back, newest replacement first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
