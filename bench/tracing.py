"""Tracing for the benchmark's traced runs.

The tracer wraps provlab's public functions and methods from outside,
at every name a caller looks up: a module-level function is replaced in
each provlab module that binds it, a method is replaced on its class.
Each call records a span (name, start, end, parent) in compact arrays
and adds to per-name call counts, total time and self time.  A span's
self time is its duration minus the time covered by its child spans.

Nothing in ``src/`` changes; :meth:`Tracer.uninstall` restores every
original binding.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from provlab import (
    cli, cloud, device, dpl, netsim, protocol, provisioner, proxy, scenarios,
    signing, stego,
)

MODULES = (cli, cloud, device, dpl, netsim, protocol, provisioner, proxy,
           scenarios, signing, stego)

# span name -> the definitions it wraps, as "module.attr" or "module.Class.attr"
SPANS = {
    "netsim.broadcast": ["netsim.Simulation.broadcast"],
    "netsim.stream_send": ["netsim.StreamEnd.send"],
    "netsim.parse_jsonl": ["netsim.CaptureLog.parse_jsonl"],
    "dpl.feed": ["dpl.DecoderState.feed"],
    "dpl.finalize": ["dpl.DecoderState.finalize"],
    "dpl.crc8": ["dpl.crc8"],
    "dpl.encode": ["dpl.encode"],
    "stego.make_bmp": ["stego.make_bmp"],
    "stego.extract": ["stego.stego_extract"],
    "stego.embed": ["stego.stego_embed"],
    "signing.sign": ["signing.sign_envelope"],
    "signing.verify": ["signing.verify_envelope"],
    "signing.seal": ["signing.seal_postdata"],
    "signing.open": ["signing.open_postdata"],
    "protocol.canonicalize": ["protocol.canonicalize"],
    "protocol.encode_frame": ["protocol.encode_frame"],
    "protocol.frame_push": ["protocol.FrameReader.push"],
    "protocol.token_check": ["protocol.device_token_check", "protocol.TokenStore.check"],
    "cloud.post": ["cloud.VendorCloud.post"],
    "cloud.request": ["cloud.VendorCloud.handle_app_request"],
    "cloud.relay": ["cloud.VendorCloud.relay_command"],
    "device.idle": ["device.IoTDevice.idle"],
    "device.command": ["device.IoTDevice.handle_command"],
    "provisioner.provision": ["provisioner.MobileApp.provision"],
    "provisioner.broadcast": ["provisioner.MobileApp.broadcast_credentials"],
    "provisioner.control": ["provisioner.MobileApp.control_device"],
    "proxy.relay": ["proxy.ProxyGateway.relay_app_envelope"],
    "proxy.provision_isolated": ["proxy.ProxyGateway.provision_isolated"],
    "scenarios.build_world": ["scenarios.build_world"],
}

VERDICTS = ("ok", "BadSignature", "UnknownBundle", "UnknownAction",
            "BadPostData", "DeviceOffline", "other")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.durations: defaultdict = defaultdict(list)
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._patches: list[tuple[object, str, object]] = []
        self._last_dst: str | None = None

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, on_exit=None):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            exc = None
            t0 = perf_counter()
            span_start.append(t0)
            span_end.append(t0)
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                result = None
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                span_end[index] = t1
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if on_exit is not None:
                    on_exit(args, result, exc, dur)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _install_target(self, name: str, target: str, on_exit) -> None:
        parts = target.split(".")
        module = sys.modules[f"provlab.{parts[0]}"]
        if len(parts) == 3:
            cls = getattr(module, parts[1])
            raw = cls.__dict__[parts[2]]
            if name == "dpl.finalize":
                raw = self._count_finalize(raw)
            if isinstance(raw, staticmethod):
                self._patch(cls, parts[2],
                            staticmethod(self._wrap(name, raw.__func__, on_exit)))
            else:
                self._patch(cls, parts[2], self._wrap(name, raw, on_exit))
            return
        original = getattr(module, parts[1])
        wrapped = self._wrap(name, original, on_exit)
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapped)

    def install(self) -> "Tracer":
        hooks = self._hooks()
        for name, targets in SPANS.items():
            for target in targets:
                self._install_target(name, target, hooks.get(name))
        self._patch(netsim.CaptureLog, "append",
                    self._count_capture(netsim.CaptureLog.__dict__["append"]))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters attached to spans ----------------------------------------

    def _hooks(self) -> dict:
        counts, durations = self.counts, self.durations
        stack_names = self._open_span_names

        def extract(args, result, exc, dur):
            if exc is None:
                durations["stego.extract.hit"].append(dur)
            elif isinstance(exc, stego.MagicMismatch):
                durations["stego.extract.miss"].append(dur)

        def request(args, result, exc, dur):
            if exc is not None:
                return
            if result.get("success"):
                reason = "ok"
            else:
                reason = result.get("result", {}).get("error", "other")
            counts["cloud.verdict." + (reason if reason in VERDICTS else "other")] += 1

        def post(args, result, exc, dur):
            if "provisioner.provision" in stack_names():
                counts["provisioner.provision.polls"] += 1

        def broadcast_credentials(args, result, exc, dur):
            if exc is None:
                counts["provisioner.broadcast.frames"] += result

        def parse_jsonl(args, result, exc, dur):
            if exc is None:
                counts["netsim.parse_jsonl.lines"] += len(result)

        return {
            "stego.extract": extract,
            "cloud.request": request,
            "cloud.post": post,
            "provisioner.broadcast": broadcast_credentials,
            "netsim.parse_jsonl": parse_jsonl,
        }

    def _count_finalize(self, finalize):
        counts = self.counts

        def counted(state):
            was_complete = state.phase is dpl.Phase.COMPLETE
            result = finalize(state)
            if not was_complete and state.phase is dpl.Phase.COMPLETE:
                counts["dpl.finalize.complete_at_finalize"] += 1
            return result

        return counted

    def _open_span_names(self) -> set[str]:
        return {self.names[self.span_name[index]] for index, _ in self._stack}

    def _count_capture(self, append):
        counts = self.counts

        def counted(log, entry):
            counts["netsim.capture.entries"] += 1
            kind = entry.kind
            if kind == "bcast":
                self._last_dst = None
            elif kind == "drop":
                counts["netsim.broadcast.drops"] += 1
            elif kind == "deliver":
                counts["netsim.broadcast.deliveries"] += 1
                # netsim appends a duplicate right after the original copy
                if entry.dst == self._last_dst:
                    counts["netsim.broadcast.dups"] += 1
                self._last_dst = entry.dst
            return append(log, entry)

        return counted

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON object per span: name, start and end (seconds), parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_start)):
                fh.write(json.dumps({
                    "i": i,
                    "name": self.names[self.span_name[i]],
                    "start": self.span_start[i],
                    "end": self.span_end[i],
                    "parent": self.span_parent[i],
                }) + "\n")
