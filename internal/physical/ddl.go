package physical

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/sqlx"
)

// IndexDDL renders the index as a CREATE INDEX statement with a derived
// name. The output round-trips through the sqlx parser.
func IndexDDL(ix *Index) string {
	return (&sqlx.CreateIndexStmt{Name: IndexName(ix), Table: ix.Table, Keys: ix.Keys, Include: ix.Suffix, Clustered: ix.Clustered}).SQL()
}

// IndexName derives a stable human-readable name for an index. A short
// content hash disambiguates indexes that share keys but differ in
// suffix columns.
func IndexName(ix *Index) string {
	kind := "ix"
	if ix.Clustered {
		kind = "cix"
	}
	cols := strings.Join(ix.Keys, "_")
	if len(cols) > 40 {
		cols = cols[:40]
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(ix.ID()))
	return fmt.Sprintf("%s_%s_%s_%04x", kind, strings.ToLower(ix.Table), strings.ToLower(cols), h.Sum32()&0xffff)
}

// ViewDDL renders the view as a CREATE VIEW statement.
func ViewDDL(v *View) string {
	return (&sqlx.CreateViewStmt{Name: v.Name, Select: v.Select()}).SQL()
}

// MigrationDDL renders the script that turns configuration `from` into
// configuration `to`: DROP statements for structures only in `from`,
// CREATE statements for structures only in `to`. Required (constraint)
// indexes are never dropped. Views are created before their indexes and
// dropped after them.
func MigrationDDL(from, to *Configuration) string {
	var sb strings.Builder
	// Creates: views first.
	for _, v := range to.Views() {
		if from.ViewBySignature(v.Signature()) == nil {
			sb.WriteString(ViewDDL(v))
			sb.WriteString(";\n")
		}
	}
	for _, ix := range to.Indexes() {
		if !from.HasIndex(ix.ID()) {
			sb.WriteString(IndexDDL(ix))
			sb.WriteString(";\n")
		}
	}
	// Drops: indexes first, then views.
	for _, ix := range from.Indexes() {
		if ix.Required || to.HasIndex(ix.ID()) {
			continue
		}
		// Skip indexes that disappear with their view.
		if v := from.View(ix.Table); v != nil && to.ViewBySignature(v.Signature()) == nil {
			continue
		}
		fmt.Fprintf(&sb, "DROP INDEX %s ON %s;\n", IndexName(ix), ix.Table)
	}
	for _, v := range from.Views() {
		if to.ViewBySignature(v.Signature()) == nil {
			fmt.Fprintf(&sb, "DROP VIEW %s;\n", v.Name)
		}
	}
	return sb.String()
}

// ConfigurationDDL renders the whole configuration as an executable
// script: view definitions first (their indexes depend on them), then all
// indexes. Required base indexes are annotated and commented out since
// they already exist in any deployment.
func ConfigurationDDL(c *Configuration) string {
	var sb strings.Builder
	for _, v := range c.Views() {
		sb.WriteString(ViewDDL(v))
		sb.WriteString(";\n")
	}
	for _, ix := range c.Indexes() {
		if ix.Required {
			sb.WriteString("-- existing (constraint): ")
			sb.WriteString(IndexDDL(ix))
			sb.WriteString(";\n")
			continue
		}
		sb.WriteString(IndexDDL(ix))
		sb.WriteString(";\n")
	}
	return sb.String()
}
