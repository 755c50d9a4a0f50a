package sqlx

// The reference lexer and renderer (reference_test.go), for the external
// test package, whose seeds come from packages that import sqlx.
var (
	RefTokenize   = refTokenize
	RefSQL        = refSQL
	RefString     = refString
	RefSelectItem = refSelectItem
	RefTableRef   = refTableRef
	RefOrderItem  = refOrderItem
)
