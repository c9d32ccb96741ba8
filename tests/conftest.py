def pytest_terminal_summary(terminalreporter):
    """Print one pass/fail line per acceptance criterion, with its call time, at the end."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and getattr(rep, "when", "call") == "call":
                name = nodeid.split("::")[-1]
                status = "PASS" if outcome == "passed" else "FAIL"
                lines.append((name, status, getattr(rep, "duration", 0.0)))
    if lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for name, status, duration in sorted(lines):
            terminalreporter.write_line(f"  {name}: {status} ({duration:.2f} s)")
