package dcs

import (
	"fmt"

	"nlexplain/internal/table"
)

// CheckError describes a static error in a query with respect to a table.
type CheckError struct {
	Expr Expr
	Msg  string
}

// Error implements the error interface.
func (e *CheckError) Error() string {
	return fmt.Sprintf("query %s: %s", Clip(fmt.Sprint(e.Expr)), e.Msg)
}

func checkErr(e Expr, format string, args ...any) error {
	return &CheckError{Expr: e, Msg: fmt.Sprintf(format, args...)}
}

// Check validates an expression against a table: every referenced column
// must exist and every operator must receive operands of the right type.
// Execution of a checked expression can still fail only on dynamic type
// errors (e.g. summing a text column). It is Compile's walk with the
// plan thrown away.
func Check(e Expr, t *table.Table) error {
	_, _, err := compile(e, t)
	return err
}
