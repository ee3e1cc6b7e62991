"""Tests for the IDL-like language and server."""

import numpy as np
import pytest

from repro.idl import (
    IdlResourceError,
    IdlRuntimeError,
    IdlServer,
    IdlServerError,
    IdlSyntaxError,
    Interpreter,
    ServerState,
    tokenize,
)


class TestLexer:
    def test_numbers(self):
        tokens = tokenize("x = 42 + 3.5 + 1e3 + 2.5d2")
        values = [token.value for token in tokens if token.kind == "NUMBER"]
        assert values == [42, 3.5, 1000.0, 250.0]

    def test_strings_with_escapes(self):
        tokens = tokenize("s = 'it''s' + \"q\"\"q\"")
        strings = [token.value for token in tokens if token.kind == "STRING"]
        assert strings == ["it's", 'q"q']

    def test_comments_stripped(self):
        tokens = tokenize("x = 1 ; this is a comment\ny = 2")
        assert not any(";" in str(token.value) for token in tokens)

    def test_ampersand_acts_as_newline(self):
        tokens = tokenize("x = 1 & y = 2")
        assert sum(1 for token in tokens if token.kind == "NEWLINE") >= 2

    def test_keywords_case_insensitive(self):
        tokens = tokenize("IF x THEN y = 1")
        assert tokens[0].kind == "KEYWORD" and tokens[0].value == "if"

    def test_unknown_character_rejected(self):
        with pytest.raises(IdlSyntaxError):
            tokenize("x = @")


class TestInterpreter:
    def test_arithmetic_and_precedence(self):
        interp = Interpreter()
        assert interp.run("1 + 2 * 3") == 7
        assert interp.run("(1 + 2) * 3") == 9
        assert interp.run("2 ^ 3 ^ 2") == 512  # right associative
        assert interp.run("7 / 2") == 3       # IDL integer division
        assert interp.run("7.0 / 2") == 3.5
        assert interp.run("7 mod 3") == 1

    def test_comparisons_and_boolean_logic(self):
        interp = Interpreter()
        assert interp.run("3 gt 2") is np.True_ or interp.run("3 gt 2") == True  # noqa: E712
        assert bool(interp.run("1 eq 1 and 2 lt 3"))
        assert not bool(interp.run("not (1 le 2)"))

    def test_array_literals_indexing_slicing(self):
        interp = Interpreter()
        assert interp.run("a = [10, 20, 30]\na[1]") == 20
        sliced = interp.run("a = [1, 2, 3, 4, 5]\na[1:3]")
        assert list(sliced) == [2, 3, 4]  # IDL slices are inclusive

    def test_index_assignment(self):
        interp = Interpreter()
        result = interp.run("a = fltarr(3)\na[1] = 9\na")
        assert list(result) == [0.0, 9.0, 0.0]

    def test_fancy_indexing_with_where(self):
        interp = Interpreter()
        result = interp.run("a = [5, 10, 15, 20]\na[where(a gt 8)]")
        assert list(result) == [10, 15, 20]

    def test_for_loop_inclusive(self):
        interp = Interpreter()
        assert interp.run("s = 0\nfor i = 1, 10 do s = s + i\ns") == 55

    def test_while_loop(self):
        interp = Interpreter()
        assert interp.run("i = 0\nwhile i lt 5 do i = i + 1\ni") == 5

    def test_if_else_with_blocks(self):
        interp = Interpreter()
        result = interp.run(
            "x = 3\n"
            "if x gt 2 then begin\n  y = 'big'\nend else begin\n  y = 'small'\nend\ny"
        )
        assert result == "big"

    def test_function_definition_and_return(self):
        interp = Interpreter()
        interp.run("function square, v\n  return, v * v\nend")
        assert interp.call("square", 6) == 36
        assert interp.run("square(5) + 1") == 26

    def test_procedure_and_print(self):
        interp = Interpreter()
        interp.run("pro greet, name\n  print, 'hello', name\nend\ngreet, 'world'")
        assert interp.printed == ["hello world"]

    def test_recursion(self):
        interp = Interpreter()
        interp.run(
            "function fact, n\n"
            "  if n le 1 then return, 1\n"
            "  return, n * fact(n - 1)\n"
            "end"
        )
        assert interp.call("fact", 6) == 720

    def test_builtin_array_functions(self):
        interp = Interpreter()
        assert interp.run("total(findgen(10))") == 45.0
        assert interp.run("n_elements(indgen(7))") == 7
        assert interp.run("max([3, 1, 4])") == 4.0
        assert interp.run("mean([2, 4])") == 3.0
        assert list(interp.run("reverse([1, 2, 3])")) == [3, 2, 1]

    def test_smooth_and_histogram_builtins(self):
        interp = Interpreter()
        smoothed = interp.run("smooth([0, 0, 9, 0, 0], 3)")
        assert smoothed[2] == pytest.approx(3.0)
        counts = interp.run("histogram([1, 1, 2, 5], 2)")
        assert counts.sum() == 4

    def test_undefined_variable_and_function_errors(self):
        interp = Interpreter()
        with pytest.raises(IdlRuntimeError):
            interp.run("y = nope + 1")
        with pytest.raises(IdlRuntimeError):
            interp.run("y = nope(1)")

    def test_division_by_zero_is_runtime_error(self):
        interp = Interpreter()
        with pytest.raises(IdlRuntimeError):
            interp.run("1 / 0")

    def test_step_budget_enforced(self):
        interp = Interpreter(step_budget=500)
        with pytest.raises(IdlResourceError):
            interp.run("i = 0\nwhile 1 do i = i + 1")

    def test_wrong_arity_rejected(self):
        interp = Interpreter()
        interp.run("pro one_arg, a\nend")
        with pytest.raises(IdlRuntimeError):
            interp.run("one_arg, 1, 2")

    def test_missing_end_rejected(self):
        with pytest.raises(IdlSyntaxError):
            Interpreter().run("pro broken, a\n  x = 1\n")

    def test_matrix_multiply(self):
        interp = Interpreter()
        interp.globals["m"] = np.eye(2)
        interp.globals["v"] = np.array([3.0, 4.0])
        assert list(interp.run("m ## v")) == [3.0, 4.0]


class TestIdlServer:
    def test_lifecycle(self):
        server = IdlServer("t0")
        assert server.state is ServerState.STOPPED
        server.start()
        assert server.state is ServerState.READY
        server.stop()
        assert server.state is ServerState.STOPPED

    def test_invoke_requires_ready(self):
        server = IdlServer("t1")
        with pytest.raises(IdlServerError):
            server.invoke("1 + 1")

    def test_invoke_returns_value_and_prints(self):
        server = IdlServer("t2")
        server.start()
        result = server.invoke("print, 'hi'\n2 + 2")
        assert result.ok and result.value == 4
        assert result.printed == ["hi"]

    def test_runtime_error_keeps_server_ready(self):
        server = IdlServer("t3")
        server.start()
        result = server.invoke("nope, 1")
        assert not result.ok
        assert server.state is ServerState.READY

    def test_resource_drain_crashes_server(self):
        server = IdlServer("t4", step_budget=1000)
        server.start()
        result = server.invoke("i = 0\nwhile 1 do i = i + 1")
        assert not result.ok and "resource drain" in result.error
        assert server.state is ServerState.CRASHED
        server.restart()
        assert server.state is ServerState.READY
        assert server.restarts == 1

    def test_deadline_timeout(self):
        server = IdlServer("t5")
        server.start()
        result = server.invoke("i = 0\nwhile 1 do i = i + 1", timeout_s=0.1)
        assert not result.ok
        assert server.state is ServerState.CRASHED

    def test_fault_hook_simulates_crash(self):
        calls = {"n": 0}

        def hook():
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("interpreter segfault")

        server = IdlServer("t6", fault_hook=hook)
        server.start()
        first = server.invoke("1")
        assert not first.ok and server.state is ServerState.CRASHED
        server.restart()
        second = server.invoke("1")
        assert second.ok

    def test_ssw_library_loaded(self, photons_small):
        server = IdlServer("t8")
        server.start()
        server.bind_photons(photons_small)
        result = server.invoke("h = flare_hardness(ph_energies)\nh ge 0")
        assert result.ok

    def test_hsi_builtins_match_kernels(self, photons_small):
        from repro.analysis import histogram as histogram_kernel

        server = IdlServer("t9")
        server.start()
        server.bind_photons(photons_small)
        result = server.invoke("hsi_histogram('energy', 32)")
        assert result.ok
        expected = histogram_kernel(photons_small, "energy", n_bins=32)
        assert np.array_equal(result.value, expected.counts)

    def test_hsi_select_narrows_bound_data(self, photons_small):
        server = IdlServer("t10")
        server.start()
        server.bind_photons(photons_small)
        result = server.invoke("hsi_select_energy(3.0, 10.0)")
        assert result.ok
        assert result.value < len(photons_small)

    def test_unbound_photons_is_clean_error(self):
        server = IdlServer("t11")
        server.start()
        result = server.invoke("hsi_lightcurve(4.0)")
        assert not result.ok
        assert "bind_photons" in result.error
        assert server.state is ServerState.READY
