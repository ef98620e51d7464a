"""Trigger Activation (Section 3.2 / Figure 6).

The last stage of the runtime pipeline: given the (OLD_NODE, NEW_NODE) pairs
that survived the condition, evaluate each trigger's action parameters and
invoke the registered external action function.

Actions are plain Python callables registered by name with the
:class:`ActionRegistry`; the paper's example ``notifySmith(NEW_NODE)`` becomes
``registry.register("notifySmith", callback)``.  Every invocation is also
recorded as an :class:`~repro.core.trigger.ActionCall` so tests, benchmarks
and the examples can inspect exactly what fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.errors import TriggerActivationError
from repro.xmlmodel.node import XmlNode
from repro.xmlmodel.xpath import XPath
from repro.core.trigger import ActionCall, TriggerSpec

__all__ = ["ActionRegistry", "TriggerActivator"]

ActionFunction = Callable[..., Any]


class ActionRegistry:
    """Registry of external action functions, addressed by name."""

    def __init__(self) -> None:
        self._actions: dict[str, ActionFunction] = {}

    def register(self, name: str, function: ActionFunction) -> None:
        """Register (or replace) an action function."""
        if not callable(function):
            raise TriggerActivationError(f"action {name!r} must be callable")
        self._actions[name] = function

    def unregister(self, name: str) -> None:
        """Remove an action function."""
        self._actions.pop(name, None)

    def get(self, name: str) -> ActionFunction | None:
        """Look up an action function (``None`` when not registered)."""
        return self._actions.get(name)

    def names(self) -> list[str]:
        """All registered action names."""
        return sorted(self._actions)


@dataclass
class TriggerActivator:
    """Evaluates action parameters and invokes action functions.

    A trigger whose action function is not registered still has its call
    recorded; nothing is invoked (useful for benchmarking pure
    trigger-processing overhead).
    """

    registry: ActionRegistry
    call_log: list[ActionCall] = field(default_factory=list)

    def activate(
        self,
        spec: TriggerSpec,
        old_node: XmlNode | None,
        new_node: XmlNode | None,
        key: tuple = (),
        compiled_args: Sequence[XPath] | None = None,
        parameters: Sequence[Any] = (),
        argument_parameters: Sequence[Sequence[Any]] | None = None,
    ) -> ActionCall:
        """Fire one trigger for one affected node pair.

        ``compiled_args`` may supply pre-compiled (possibly parameterized)
        argument expressions.  ``parameters`` binds grouped constants shared
        by all arguments; ``argument_parameters`` instead binds a separate
        constants sequence per argument (the grouped-trigger case, where each
        action argument had its own literals extracted).
        """
        variables = {"OLD_NODE": old_node, "NEW_NODE": new_node}
        expressions = compiled_args if compiled_args is not None else spec.compiled_args()
        arguments = []
        for index, expression in enumerate(expressions):
            if argument_parameters is not None:
                bound = argument_parameters[index] if index < len(argument_parameters) else ()
            else:
                bound = parameters
            value = expression.evaluate(variables, parameters=bound)
            arguments.append(_simplify(value))
        call = ActionCall(
            trigger_name=spec.name,
            action_name=spec.action_name,
            arguments=tuple(arguments),
            old_node=old_node,
            new_node=new_node,
            key=key,
        )
        function = self.registry.get(spec.action_name)
        if function is not None:
            try:
                function(*call.arguments)
            except Exception as exc:  # surface action failures with context
                raise TriggerActivationError(
                    f"trigger {spec.name!r}: action {spec.action_name!r} raised {exc!r}"
                ) from exc
        self.call_log.append(call)
        return call

    def reset_log(self) -> None:
        """Clear the recorded action calls."""
        self.call_log.clear()


def _simplify(value: Any) -> Any:
    """Unwrap single-item node lists produced by XPath evaluation."""
    if isinstance(value, list):
        if not value:
            return None
        if len(value) == 1:
            return value[0]
    return value
