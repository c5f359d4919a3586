import dataclasses
import inspect

import relcpd


def test_every_exported_class_and_function_has_a_written_docstring():
    # a dataclass without a docstring gets its signature as __doc__, which
    # states no contract
    missing = []
    for name in relcpd.__all__:
        obj = getattr(relcpd, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        doc = (obj.__doc__ or "").strip()
        if not doc or (dataclasses.is_dataclass(obj) and doc == obj.__name__
                       + str(inspect.signature(obj)).replace(" -> None", "")):
            missing.append(name)
    assert missing == []
