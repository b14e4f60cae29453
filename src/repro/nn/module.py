"""Module system: stateful layers with parameter management.

Mirrors the relevant slice of ``torch.nn.Module``: registration of
parameters, buffers and sub-modules by attribute assignment, recursive
``parameters()`` / ``named_parameters()`` iteration, train/eval mode, and
``state_dict`` round-tripping.  The MTL-Split architecture
(:mod:`repro.core.architecture`) and all backbones are built on this base.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential", "ModuleList", "Identity"]


class Parameter(Tensor):
    """A :class:`Tensor` that is a learnable leaf (``requires_grad=True``)."""

    def __init__(self, data, requires_grad: bool = True):
        super().__init__(data, requires_grad=requires_grad)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.shape}, dtype={self.dtype})"


class Module:
    """Base class for all neural-network modules.

    Sub-classes assign :class:`Parameter`, buffer arrays (via
    :meth:`register_buffer`) and sub-``Module`` instances as attributes;
    the base class tracks them for recursive iteration, mode switching and
    serialisation.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self.__dict__.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self.__dict__.pop(name, None)
        else:
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
            object.__setattr__(self, name, value)

    def __getattr__(self, name: str):
        for registry in ("_parameters", "_buffers", "_modules"):
            table = self.__dict__.get(registry)
            if table is not None and name in table:
                return table[name]
        raise AttributeError(f"{type(self).__name__!r} has no attribute {name!r}")

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Track a non-learnable array (e.g. batch-norm running stats)."""
        self._buffers[name] = value

    def add_module(self, name: str, module: "Module") -> None:
        """Register a sub-module under an explicit name."""
        self._modules[name] = module

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix + name + ".")

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix + name + ".")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters in the module tree."""
        return sum(
            p.size
            for p in self.parameters()
            if not trainable_only or p.requires_grad
        )

    # ------------------------------------------------------------------
    # Mode / gradient management
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Switch the module tree into training (or eval) mode."""
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Switch the module tree into evaluation mode."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients on every parameter in the tree."""
        for param in self.parameters():
            param.zero_grad()

    def requires_grad_(self, flag: bool = True) -> "Module":
        """Freeze (``False``) or unfreeze (``True``) all parameters."""
        for param in self.parameters():
            param.requires_grad = flag
        return self

    # ------------------------------------------------------------------
    # Inference compilation
    # ------------------------------------------------------------------
    def compile_for_inference(
        self,
        sample_input=None,
        atol: float = 1e-4,
        plan: bool = False,
        fan_out: int = 1,
        copy_outputs: bool = False,
        max_plans: int = 8,
        optimize: bool = True,
    ):
        """Compile this module's eval-mode forward into an autograd-free
        :class:`~repro.nn.fuse.InferenceSession`.

        Batch-norm parameters are folded into preceding conv/linear
        weights and activations are fused into their producers; module
        types without a lowering rule fall back to the normal forward.
        The session snapshots the current weights — recompile after
        further training.  When ``sample_input`` is given, the compiled
        outputs are verified against the eval forward within ``atol``.

        With ``plan=True`` the session is wrapped in a
        :class:`~repro.nn.engine.PlannedExecutor`: an optimizer-rewritten
        execution plan per batch shape (epilogue fusion, copy elision,
        kernel selection, blocked SpMM — disable with ``optimize=False``)
        with an arena of preallocated buffers (zero steady-state
        allocations).  Hires geometries run a batch as per-image plans
        on up to ``fan_out`` threads (an internal width: deployments pass
        :func:`~repro.nn.engine.fan_out_width` after pinning BLAS).  The
        per-shape plan cache is a bounded LRU of ``max_plans`` entries.
        Planned outputs are executor-owned and overwritten by the next
        call unless ``copy_outputs=True``.
        """
        from .fuse import compile_module, verify_session

        session = compile_module(self)
        if plan:
            from .engine import PlannedExecutor

            session = PlannedExecutor(
                session,
                copy_outputs=copy_outputs,
                max_plans=max_plans,
                optimize=optimize,
                fan_out=fan_out,
            )
        if sample_input is not None:
            verify_session(self, session, sample_input, atol=atol)
        return session

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat mapping of parameter/buffer names to arrays (copies)."""
        state: Dict[str, np.ndarray] = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = np.array(buf, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load arrays produced by :meth:`state_dict` back into the tree."""
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        missing = []
        for name, param in own_params.items():
            if name not in state:
                missing.append(name)
                continue
            value = np.asarray(state[name])
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"checkpoint {value.shape} vs module {param.data.shape}"
                )
            param.data[...] = value.astype(param.data.dtype)
        for name, buf in own_buffers.items():
            if name not in state:
                missing.append(name)
                continue
            np.copyto(buf, np.asarray(state[name]).astype(buf.dtype))
        unexpected = [k for k in state if k not in own_params and k not in own_buffers]
        if strict and (missing or unexpected):
            raise KeyError(
                f"load_state_dict mismatch: missing={missing}, unexpected={unexpected}"
            )

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_lines: List[str] = []
        for name, module in self._modules.items():
            body = repr(module).replace("\n", "\n  ")
            child_lines.append(f"  ({name}): {body}")
        header = type(self).__name__
        if not child_lines:
            return f"{header}()"
        return header + "(\n" + "\n".join(child_lines) + "\n)"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        for index, module in enumerate(modules):
            self.add_module(str(index), module)

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index):
        items = list(self._modules.values())
        if isinstance(index, slice):
            return Sequential(*items[index])
        return items[index]

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def append(self, module: Module) -> "Sequential":
        self.add_module(str(len(self._modules)), module)
        return self

    def forward(self, x: Tensor) -> Tensor:
        for module in self._modules.values():
            x = module(x)
        return x


class ModuleList(Module):
    """List container whose entries are registered sub-modules."""

    def __init__(self, modules: Optional[List[Module]] = None):
        super().__init__()
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self.add_module(str(len(self._modules)), module)
        return self

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called")


class Identity(Module):
    """Pass-through module (useful as a structural placeholder)."""

    def forward(self, x: Tensor) -> Tensor:
        return x
