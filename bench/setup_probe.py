"""Set-up a user pays on every CLI call: a fresh interpreter imports partreg.

    python3 bench/setup_probe.py <launch time> <src dir> <domain>...
    python3 bench/setup_probe.py <launch time> --reference

<launch time> is time.time() in the launching process just before it started
this one.  After importing partreg from <src dir> and building each domain
(with its coefficient field), prints the seconds since <launch time>.  With
--reference it imports a fixed set of standard-library modules instead, the
yardstick that run.measure_setup scales the partreg launches by.
"""

import sys
import time

launched = float(sys.argv[1])

if sys.argv[2] == "--reference":
    import argparse, asyncio, decimal, email.mime.multipart, fractions, http.server, json  # noqa: E401, F401
    import logging, sqlite3, ssl, unittest, xml.dom.minidom  # noqa: E401, F401
else:
    sys.path.insert(0, sys.argv[2])
    from partreg import rings

    for text in sys.argv[3:]:
        domain = rings.parse_domain(text)
        if domain.kind == "GFqt":
            domain.coeff_field.from_int(1)
print(time.time() - launched)
