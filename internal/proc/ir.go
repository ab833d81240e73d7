// Package proc defines the stored-procedure model: a small interpreted IR of
// database operations (read / write / insert / delete) with assignments,
// conditionals, and loops over list parameters.
//
// The paper models a stored procedure as "a parameterized transaction
// template ... that consists of a structured flow of database operations"
// (Section 3). Everything PACMAN does hangs off this representation:
//
//   - The transaction engine interprets it to execute OLTP transactions.
//   - The static analysis (internal/analysis) reads the compile-time
//     dependency metadata — which operations' key, value, and guard
//     expressions use which earlier reads — to build flow dependencies.
//   - Command-log recovery re-executes it piece by piece: a piece runs the
//     subset of operations belonging to one slice while re-evaluating all
//     control flow, exactly like the duplicated guards in the paper's
//     Figure 3. Values read by one piece flow to later pieces of the same
//     transaction through a shared register file.
//   - The dynamic analysis "dry-walks" a piece to extract its accessed
//     (table, key) set from the runtime parameter values without executing
//     the operations (Section 4.3.1).
package proc

import "pacman/internal/tuple"

// Procedure is the source form of a stored procedure.
type Procedure struct {
	Name   string
	Params []ParamDef
	Body   []Stmt
}

// ParamDef declares one parameter. All parameters are lists of values;
// scalar parameters are length-one lists (the usual case). ForEach loops
// iterate list parameters.
type ParamDef struct {
	Name string
}

// P declares a parameter.
func P(name string) ParamDef { return ParamDef{Name: name} }

// Stmt is a statement in a procedure body.
type Stmt interface{ isStmt() }

// ReadStmt is: Dst <- read(Table, Key, Col). A missing row yields NULL.
type ReadStmt struct {
	Dst   string
	Table string
	Key   Expr
	Col   string
}

// WriteStmt updates the named columns of the row with the given key,
// creating the row if it does not exist (unset columns stay NULL).
type WriteStmt struct {
	Table string
	Key   Expr
	Sets  []ColSet
}

// ColSet assigns one column in a WriteStmt.
type ColSet struct {
	Col string
	Val Expr
}

// InsertStmt inserts a full row (values in schema order).
type InsertStmt struct {
	Table string
	Key   Expr
	Vals  []Expr
}

// DeleteStmt deletes the row with the given key (no-op if absent).
type DeleteStmt struct {
	Table string
	Key   Expr
}

// AssignStmt is: Dst <- Val, a local computation.
type AssignStmt struct {
	Dst string
	Val Expr
}

// IfStmt guards its branches on a condition.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// ForEachStmt iterates a list parameter, binding Var to each element and
// IdxVar (optional, may be empty) to the zero-based index.
type ForEachStmt struct {
	IdxVar string
	Var    string
	List   string // parameter name
	Body   []Stmt
}

// AbortStmt aborts the transaction (used under an If for conditional
// rollbacks like TPC-C's invalid-item NewOrder).
type AbortStmt struct{}

func (ReadStmt) isStmt()    {}
func (WriteStmt) isStmt()   {}
func (InsertStmt) isStmt()  {}
func (DeleteStmt) isStmt()  {}
func (AssignStmt) isStmt()  {}
func (IfStmt) isStmt()      {}
func (ForEachStmt) isStmt() {}
func (AbortStmt) isStmt()   {}

// Expr is an expression over constants, parameters, and local variables.
type Expr interface{ isExpr() }

// ConstExpr is a literal value.
type ConstExpr struct{ V tuple.Value }

// ParamExpr references a scalar parameter (element 0 of its list).
type ParamExpr struct{ Name string }

// VarExpr references a local variable (defined by Read, Assign, or ForEach).
type VarExpr struct{ Name string }

// BinExpr applies a binary operator.
type BinExpr struct {
	Op   BinOp
	L, R Expr
}

// NotExpr negates a condition.
type NotExpr struct{ E Expr }

func (ConstExpr) isExpr() {}
func (ParamExpr) isExpr() {}
func (VarExpr) isExpr()   {}
func (BinExpr) isExpr()   {}
func (NotExpr) isExpr()   {}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators. Arithmetic on two ints yields int; mixed or float
// operands yield float. Comparisons yield Bool (an int 0/1). Add
// concatenates strings.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

// Expression constructors, kept short because workload definitions use them
// heavily.

// C wraps a constant value.
func C(v tuple.Value) Expr { return ConstExpr{V: v} }

// CI wraps a constant int.
func CI(v int64) Expr { return ConstExpr{V: tuple.I(v)} }

// CS wraps a constant string.
func CS(v string) Expr { return ConstExpr{V: tuple.S(v)} }

// CF wraps a constant float.
func CF(v float64) Expr { return ConstExpr{V: tuple.F(v)} }

// Pm references a scalar parameter.
func Pm(name string) Expr { return ParamExpr{Name: name} }

// V references a local variable.
func V(name string) Expr { return VarExpr{Name: name} }

// Bin builds a binary expression.
func Bin(op BinOp, l, r Expr) Expr { return BinExpr{Op: op, L: l, R: r} }

// Add returns l + r.
func Add(l, r Expr) Expr { return BinExpr{Op: OpAdd, L: l, R: r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return BinExpr{Op: OpSub, L: l, R: r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return BinExpr{Op: OpMul, L: l, R: r} }

// Eq returns l == r.
func Eq(l, r Expr) Expr { return BinExpr{Op: OpEq, L: l, R: r} }

// Ne returns l != r.
func Ne(l, r Expr) Expr { return BinExpr{Op: OpNe, L: l, R: r} }

// Lt returns l < r.
func Lt(l, r Expr) Expr { return BinExpr{Op: OpLt, L: l, R: r} }

// Gt returns l > r.
func Gt(l, r Expr) Expr { return BinExpr{Op: OpGt, L: l, R: r} }

// Ge returns l >= r.
func Ge(l, r Expr) Expr { return BinExpr{Op: OpGe, L: l, R: r} }

// Not negates e.
func Not(e Expr) Expr { return NotExpr{E: e} }

// Statement constructors.

// Read builds a ReadStmt.
func Read(dst, table string, key Expr, col string) Stmt {
	return ReadStmt{Dst: dst, Table: table, Key: key, Col: col}
}

// Write builds a WriteStmt.
func Write(table string, key Expr, sets ...ColSet) Stmt {
	return WriteStmt{Table: table, Key: key, Sets: sets}
}

// Set builds one column assignment for Write.
func Set(col string, val Expr) ColSet { return ColSet{Col: col, Val: val} }

// Insert builds an InsertStmt.
func Insert(table string, key Expr, vals ...Expr) Stmt {
	return InsertStmt{Table: table, Key: key, Vals: vals}
}

// Delete builds a DeleteStmt.
func Delete(table string, key Expr) Stmt {
	return DeleteStmt{Table: table, Key: key}
}

// If builds a guard with no else branch.
func If(cond Expr, then ...Stmt) Stmt { return IfStmt{Cond: cond, Then: then} }

// IfElse builds a guard with both branches.
func IfElse(cond Expr, then, els []Stmt) Stmt {
	return IfStmt{Cond: cond, Then: then, Else: els}
}

// ForEach builds a loop over a list parameter.
func ForEach(v, list string, body ...Stmt) Stmt {
	return ForEachStmt{Var: v, List: list, Body: body}
}

// ForEachIdx builds a loop that also binds the iteration index.
func ForEachIdx(idx, v, list string, body ...Stmt) Stmt {
	return ForEachStmt{IdxVar: idx, Var: v, List: list, Body: body}
}

// Abort builds an AbortStmt.
func Abort() Stmt { return AbortStmt{} }
