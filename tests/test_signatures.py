"""The public API has one path per decision: no knob that nothing reads."""

import inspect

import rulekit
import rulekit.cli as cli
from rulekit.report import emit_rule_table

# No stage reads a thread count, the pipeline never writes a rule with an
# empty antecedent, and an empty case always gets its header-only table.
REMOVED = {"threads", "allow_empty_antecedent", "allow_empty"}


def test_no_callable_takes_a_removed_knob():
    public = {name: getattr(rulekit, name) for name in rulekit.__all__}
    callables = {
        name: obj
        for name, obj in public.items()
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    callables.update((name, getattr(cli, name)) for name in dir(cli) if name.startswith("cmd_"))
    callables["emit_rule_table"] = emit_rule_table
    assert {fn.__name__ for fn in cli._COMMANDS.values()} <= set(callables)
    offenders = {
        name: sorted(set(inspect.signature(fn).parameters) & REMOVED)
        for name, fn in callables.items()
    }
    assert {name: knobs for name, knobs in offenders.items() if knobs} == {}
