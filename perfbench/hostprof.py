"""Host self time and call counts per program module, from cProfile.

cProfile charges each function its own time (``tottime``).  Functions
of the program and of this benchmark map to a named module below; every
other function - a builtin such as ``struct.pack`` or ``zlib.crc32``, or
standard-library Python - is charged to whichever module called it, in
proportion to the time (and calls) each caller spent in it.  Time with
no calling module at all lands in ``other``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = ["MODULES", "module_of", "per_module"]

#: (path fragment, module name), first match wins
_RULES = (
    ("/repro/sim/engine.py", "sim.engine"),
    ("/repro/sim/cpu.py", "sim.cpu"),
    ("/repro/sim/trace.py", "sim.trace"),
    ("/repro/sim/fabric.py", "sim.fabric"),
    ("/repro/netstack/tcp.py", "netstack.tcp"),
    ("/repro/netstack/packet.py", "netstack.packet"),
    ("/repro/netstack/ethernet.py", "netstack.packet"),
    ("/repro/netstack/ipv4.py", "netstack.ipv4"),
    ("/repro/netstack/", "netstack.stack"),
    ("/repro/hw/nic.py", "hw.nic"),
    ("/repro/hw/nvme.py", "hw.nvme"),
    ("/repro/kernelos/", "kernelos"),
    ("/repro/libos/", "libos"),
    ("/repro/core/", "core"),
    ("/repro/memory/", "memory"),
    ("/repro/apps/proto/", "apps.proto"),
    ("/repro/apps/", "apps"),
    ("/repro/cluster/", "cluster"),
    ("/repro/storage/", "storage"),
    ("/repro/telemetry/", "telemetry"),
    ("/perfbench/", "bench"),
    ("/repro/", "other"),
)

#: every module name a profile is reported under, ``other`` last
MODULES = tuple(dict.fromkeys(name for _, name in _RULES
                              if name != "other")) + ("other",)

_Func = Tuple[str, int, str]


def module_of(filename: str) -> Optional[str]:
    """The module a source file belongs to, or ``None`` if foreign."""
    path = "/" + filename.replace("\\", "/").lstrip("/")
    for fragment, name in _RULES:
        if fragment in path:
            return name
    return None


def per_module(stats: Dict[_Func, tuple]) -> Tuple[Dict[str, float],
                                                    Dict[str, int]]:
    """``(self seconds, calls)`` per module from ``Profile.stats``.

    *stats* maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    with ``callers`` mapping caller to ``(nc, cc, tt, ct)``, the layout
    ``cProfile.Profile.create_stats`` leaves behind.
    """
    self_s = {name: 0.0 for name in MODULES}
    calls = {name: 0 for name in MODULES}
    memo: Dict[Tuple[_Func, int], Dict[str, float]] = {}

    def share(func: _Func, field: int, visiting: frozenset
              ) -> Dict[str, float]:
        """How a foreign function's cost splits over calling modules.

        Caller edges are weighted by time (*field* 2) or by calls
        (*field* 0); call counts never depend on timing.
        """
        owner = None if func[0] == "~" else module_of(func[0])
        if owner is not None:
            return {owner: 1.0}
        if (func, field) in memo:
            return memo[func, field]
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[field] for edge in callers.values())
        if not total:
            return share(func, 0, visiting) if field else {"other": 1.0}
        out: Dict[str, float] = {}
        for caller, edge in callers.items():
            parts = ({"other": 1.0} if caller in visiting
                     else share(caller, field, visiting | {func}))
            for name, part in parts.items():
                out[name] = out.get(name, 0.0) + edge[field] / total * part
        memo[func, field] = out or {"other": 1.0}
        return memo[func, field]

    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        owner = None if func[0] == "~" else module_of(func[0])
        if owner is not None:
            self_s[owner] += tt
            calls[owner] += nc
            continue
        # Foreign code: charge each caller edge to the caller's module.
        for caller, (e_nc, _e_cc, e_tt, _e_ct) in callers.items():
            for name, part in share(caller, 2, frozenset([func])).items():
                self_s[name] += e_tt * part
            # Calls stay whole: each edge goes to the module that made most
            # of the caller's own calls, so counts repeat exactly.
            parts = share(caller, 0, frozenset([func]))
            calls[max(parts, key=lambda name: (parts[name], name))] += e_nc
        self_s["other"] += max(0.0, tt - sum(e[2] for e in callers.values()))
        calls["other"] += max(0, nc - sum(e[0] for e in callers.values()))
    return self_s, calls
