import json
import subprocess
import sys
from pathlib import Path

import shapovalov

# a child process imports the package from where this one found it
SRC = str(Path(shapovalov.__file__).resolve().parents[1])

# heavy standard-library modules that importing the package must not load:
# dataclasses pulls in inspect, which pulls in ast, dis and tokenize
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_import_loads_no_heavy_stdlib_module():
    # -S skips site, so the child starts from the interpreter's own modules
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import shapovalov; "
        "print(json.dumps({'file': shapovalov.__file__, 'modules': sorted(sys.modules)}))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code, SRC],
                         capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out)
    assert Path(loaded["file"]).resolve().is_relative_to(Path(SRC))
    assert [m for m in HEAVY if m in loaded["modules"]] == []
